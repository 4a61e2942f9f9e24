package simnet

import (
	"fmt"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// Env is the simulated implementation of transport.Env: one logical process
// (a *sim.Proc) running on one host of the virtual network.
type Env struct {
	node   *Node
	p      *sim.Proc
	daemon bool
	// tctx is the process's ambient trace context: spans opened while it is
	// set parent under the traced job that reached this process. Children
	// inherit the spawner's context at spawn time. Purely observational —
	// it never influences scheduling or timing.
	tctx obs.TraceContext
}

var _ transport.Env = (*Env)(nil)

// Spawn starts fn as a new simulated process on the same host. The spawned
// process receives its own Env bound to a fresh kernel process. Processes
// spawned by a daemon are themselves daemons (a server's connection handlers
// should not keep the simulation alive).
func (e *Env) Spawn(name string, fn func(transport.Env)) {
	node := e.node
	tctx := e.tctx
	spawn := node.net.K.Spawn
	if e.daemon {
		spawn = node.net.K.SpawnDaemon
	}
	node.trackProc(spawn(name, func(p *sim.Proc) {
		defer node.untrackProc(p)
		fn(&Env{node: node, p: p, daemon: e.daemon, tctx: tctx})
	}))
}

// SpawnService starts fn as a daemon process on the same host regardless of
// the spawner's own status: service loops never count as pending work.
func (e *Env) SpawnService(name string, fn func(transport.Env)) {
	node := e.node
	tctx := e.tctx
	node.trackProc(node.net.K.SpawnDaemon(name, func(p *sim.Proc) {
		defer node.untrackProc(p)
		fn(&Env{node: node, p: p, daemon: true, tctx: tctx})
	}))
}

// Hostname implements transport.Env.
func (e *Env) Hostname() string { return e.node.name }

// Now implements transport.Env with the virtual clock.
func (e *Env) Now() time.Duration { return e.p.Now() }

// Sleep implements transport.Env in virtual time.
func (e *Env) Sleep(d time.Duration) { e.p.Sleep(d) }

// Compute implements transport.Env: it acquires one of the host's CPUs and
// holds it for d scaled by the host's speed factor, so co-located processes
// contend realistically and slow clusters take proportionally longer.
func (e *Env) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	e.node.cpus.Acquire(e.p)
	e.p.Sleep(e.scaled(d))
	e.node.cpus.Release()
}

// scaled is how long a charge of d holds a CPU at the host's speed now.
func (e *Env) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) / e.node.speed)
}

// ComputeEach implements transport.ComputeEach's fast path: it behaves as
//
//	for d > 0 {
//		e.Compute(d)
//		d = step()
//	}
//
// but step runs in place at each wakeup (sim.Proc.SleepEach), releasing the
// CPU before it and taking it back after it. The process is resumed only
// when step hands back (d <= 0) or when the CPU is taken, in which case it
// queues for it with a blocking Acquire, in the order Compute would have.
// step follows SleepEach's rules.
func (e *Env) ComputeEach(d time.Duration, step func() time.Duration) {
	if d <= 0 {
		return
	}
	net := e.node.net
	s := net.takeSlice(e, step)
	for d > 0 {
		e.node.cpus.Acquire(e.p)
		sc := e.scaled(d)
		if sc <= 0 { // Compute's Sleep(0): yield holding the CPU
			e.p.Yield()
			e.node.cpus.Release()
			d = step()
			continue
		}
		e.p.SleepEach(sc, s.wake)
		d = s.d
	}
	net.putSlice(s)
}

// computeSlice is one ComputeEach call's wakeup step. Records are recycled
// per network, and wake is bound once per record, so a call allocates
// nothing in steady state.
type computeSlice struct {
	e    *Env
	cpus *sim.Semaphore // e's host's processors
	step func() time.Duration
	// d is step's last result: the charge the process must start itself
	// when wake hands back with d > 0.
	d    time.Duration
	wake func() time.Duration
}

// run is the wakeup: Compute's Release, step, then the next Compute's
// Acquire if the CPU is free. It hands back (0) when step does, when the CPU
// is taken, or when the next charge scales to nothing.
func (s *computeSlice) run() time.Duration {
	cpus := s.cpus
	cpus.Release()
	s.d = s.step()
	if s.d <= 0 || !cpus.TryAcquire() {
		return 0
	}
	if sc := s.e.scaled(s.d); sc > 0 {
		return sc
	}
	cpus.Release() // undone: the process acquires and yields as Compute does
	return 0
}

func (n *Network) takeSlice(e *Env, step func() time.Duration) *computeSlice {
	var s *computeSlice
	if k := len(n.freeSlices); k > 0 {
		s = n.freeSlices[k-1]
		n.freeSlices = n.freeSlices[:k-1]
	} else {
		s = &computeSlice{}
		s.wake = s.run
	}
	s.e, s.cpus, s.step = e, e.node.cpus, step
	return s
}

func (n *Network) putSlice(s *computeSlice) {
	s.e, s.cpus, s.step = nil, nil, nil
	n.freeSlices = append(n.freeSlices, s)
}

// Dial implements transport.Env.
func (e *Env) Dial(addr string) (transport.Conn, error) { return e.node.dial(e.p, e.tctx, addr) }

// Listen implements transport.Env.
func (e *Env) Listen(port int) (transport.Listener, error) { return e.node.listen(port) }

// Proc exposes the underlying kernel process for code that needs raw sim
// primitives alongside the transport API (e.g. the MPI progress engine).
func (e *Env) Proc() *sim.Proc { return e.p }

// Observer exposes the network's observability sink (nil when tracing is
// disabled). Protocol layers reach it portably with obs.From(env), which
// returns nil for environments — like real TCP — that carry none.
func (e *Env) Observer() *obs.Observer { return e.node.net.Obs }

// Rand draws from the kernel's seeded deterministic random stream; see
// transport.RandOf for the portable extraction used by retry jitter.
func (e *Env) Rand() uint64 { return e.node.net.K.Rand() }

// Sessions returns the network's idle-session table; see
// transport.SessionsOf.
func (e *Env) Sessions() *transport.Sessions { return &e.node.net.sessions }

// TraceContext returns the process's ambient trace context; obs.CtxOf is
// the portable extraction instrumentation sites use.
func (e *Env) TraceContext() obs.TraceContext { return e.tctx }

// SetTraceContext installs the process's ambient trace context (obs.SetCtx
// is the portable setter). Processes spawned afterwards inherit it.
func (e *Env) SetTraceContext(tc obs.TraceContext) { e.tctx = tc }

// Node exposes the underlying host.
func (e *Env) Node() *Node { return e.node }

// SpawnOn starts fn as a process on host nd; the usual way to boot daemons
// and application ranks onto the virtual testbed.
func (nd *Node) SpawnOn(name string, fn func(transport.Env)) {
	nd.trackProc(nd.net.K.Spawn(name, func(p *sim.Proc) {
		defer nd.untrackProc(p)
		fn(&Env{node: nd, p: p})
	}))
}

// SpawnDaemonOn is SpawnOn for never-exiting service processes, so that
// sim.Kernel.Run still returns once application work completes.
func (nd *Node) SpawnDaemonOn(name string, fn func(transport.Env)) {
	nd.trackProc(nd.net.K.SpawnDaemon(name, func(p *sim.Proc) {
		defer nd.untrackProc(p)
		fn(&Env{node: nd, p: p, daemon: true})
	}))
}

// procOf extracts the kernel process from a caller's Env, guarding against
// mixing environments from a different implementation. An Env that wraps a
// simnet one and exposes its process (Proc) passes.
func procOf(env transport.Env, op string) *sim.Proc {
	switch se := env.(type) {
	case *Env:
		return se.p
	case interface{ Proc() *sim.Proc }:
		return se.Proc()
	}
	panic(fmt.Sprintf("simnet: %s called with non-simnet Env %T", op, env))
}
