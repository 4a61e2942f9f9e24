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
	e.p.Sleep(time.Duration(float64(d) / e.node.speed))
	e.node.cpus.Release()
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
// mixing environments from a different implementation.
func procOf(env transport.Env, op string) *sim.Proc {
	se, ok := env.(*Env)
	if !ok {
		panic(fmt.Sprintf("simnet: %s called with non-simnet Env %T", op, env))
	}
	return se.p
}
