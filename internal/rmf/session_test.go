package rmf

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nxcluster/internal/hbm"
	"nxcluster/internal/nexus"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// dialCounter counts a TCPEnv's dials per address.
type dialCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (d *dialCounter) guard(addr string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.n == nil {
		d.n = make(map[string]int)
	}
	d.n[addr]++
	return nil
}

// since returns how many dials each address took after before.
func (d *dialCounter) since(before map[string]int) map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]int)
	for a, n := range d.n {
		if n > before[a] {
			out[a] = n - before[a]
		}
	}
	return out
}

func (d *dialCounter) snapshot() map[string]int { return d.since(nil) }

// serveTCP runs serve on a process of env and returns the address it
// reports ready.
func serveTCP(t *testing.T, env transport.Env, serve func(transport.Env, func(string)) error) string {
	t.Helper()
	ready, failed := make(chan string, 1), make(chan error, 1)
	env.Spawn("daemon", func(e transport.Env) {
		if err := serve(e, func(a string) { ready <- a }); err != nil {
			failed <- err
		}
	})
	select {
	case addr := <-ready:
		return addr
	case err := <-failed:
		t.Fatal(err)
		return ""
	}
}

// rigTCP is an allocator and Q servers on loopback sockets, sharing one
// env, whose dials are counted.
type rigTCP struct {
	env    *transport.TCPEnv
	dials  *dialCounter
	alloc  *Allocator
	addr   string
	qs     []*QServer
	qaddrs []string
}

// newRigTCP starts an allocator and one single-CPU Q server per name, each
// registered with the allocator, running programs from reg.
func newRigTCP(t *testing.T, reg *Registry, names ...string) *rigTCP {
	t.Helper()
	r := &rigTCP{env: transport.NewTCPEnv("localhost"), dials: &dialCounter{}, alloc: NewAllocator()}
	r.env.DialGuard = r.dials.guard
	r.addr = serveTCP(t, r.env, func(e transport.Env, ready func(string)) error { return r.alloc.Serve(e, 0, ready) })
	for _, name := range names {
		q := NewQServer(name, "c", 1, reg)
		r.qs = append(r.qs, q)
		r.qaddrs = append(r.qaddrs, serveTCP(t, r.env, func(e transport.Env, ready func(string)) error {
			return q.Serve(e, 0, r.addr, ready)
		}))
	}
	t.Cleanup(func() {
		for _, q := range r.qs {
			q.Close(r.env)
		}
		r.alloc.Close(r.env)
	})
	return r
}

// waitParked returns once an Await handler of q is parked on job id.
func waitParked(t *testing.T, q *QServer, id string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		q.mu.Lock()
		parked := q.jobs[id].ended != nil
		q.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no Await parked on %s within 5s", id)
		}
	}
}

// okReg runs "ok", which succeeds at once.
func okReg() *Registry {
	reg := NewRegistry()
	reg.Register("ok", func(env transport.Env, ctx *JobContext) error { return nil })
	return reg
}

// TestSessionsSharedTCP: two goroutines share one TCPEnv and each run 100
// SubmitJob, Await and ReleaseSlots cycles. Every call takes an idle session
// and keeps it after the reply, so the allocator and each Q server accept at
// most two connections, one per caller in flight, and every slot goes back.
func TestSessionsSharedTCP(t *testing.T) {
	r := newRigTCP(t, okReg(), "n0", "n1")
	before := r.dials.snapshot()
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h, err := SubmitJob(r.env, r.addr, JobRequest{Count: 2, Spec: ProcessSpec{Executable: "ok"}})
				if err == nil {
					err = h.Await(r.env, time.Second, 10*time.Second)
					h.ReleaseSlots(r.env)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	dials := r.dials.since(before)
	for _, addr := range append([]string{r.addr}, r.qaddrs...) {
		if dials[addr] > 2 {
			t.Errorf("%d connections to %s, want at most 2", dials[addr], addr)
		}
	}
	for _, name := range []string{"n0", "n1"} {
		if l := r.alloc.Load(name); l != 0 {
			t.Errorf("%s holds %d slots after every job released them", name, l)
		}
	}
}

// TestSessionRetryTCP: a Q server restarted on the same port has ended the
// client's idle session, so the next Submit fails on it before any reply
// byte and succeeds on exactly one new connection. A request that fails on
// a new connection is returned, not sent again.
func TestSessionRetryTCP(t *testing.T) {
	r := newRigTCP(t, okReg(), "n0")
	qaddr := r.qaddrs[0]
	_, port, err := transport.SplitAddr(qaddr)
	if err != nil {
		t.Fatal(err)
	}
	spec := ProcessSpec{Executable: "ok"}
	// submit runs one Submit and returns how many dials it made.
	submit := func() (int, error) {
		before := r.dials.snapshot()
		_, err := Submit(r.env, qaddr, spec)
		return r.dials.since(before)[qaddr], err
	}
	if n, err := submit(); err != nil || n != 1 {
		t.Fatalf("first Submit: %d dials, err = %v; want 1 dial", n, err)
	}
	if n, err := submit(); err != nil || n != 0 {
		t.Fatalf("second Submit: %d dials, err = %v; want the kept session", n, err)
	}
	r.qs[0].Close(r.env)
	r.qs[0] = NewQServer("n0", "c", 1, okReg())
	serveTCP(t, r.env, func(e transport.Env, ready func(string)) error { return r.qs[0].Serve(e, port, "", ready) })
	if n, err := submit(); err != nil || n != 1 {
		t.Fatalf("Submit after a restart: %d dials, err = %v; want 1 dial (the retry)", n, err)
	}

	// A server that hangs up on every request: the reused session fails,
	// and so does its one retry, which is returned.
	r.qs[0].Close(r.env)
	l, err := r.env.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(r.env)
	r.env.Spawn("hang-up", func(e transport.Env) {
		for {
			c, err := l.Accept(e)
			if err != nil {
				return
			}
			_, _ = nexus.ReadFrame(transport.Stream{Env: e, Conn: c}, 0)
			_ = c.Close(e)
		}
	})
	if n, err := submit(); err == nil || n != 1 {
		t.Fatalf("Submit against a server that hangs up: %d dials, err = %v; want 1 dial and an error", n, err)
	}
}

// TestDaemonCloseTCP: Close ends an idle allocator session at once, and a Q
// server session busy on an Await gets its reply after Close; then no
// session goroutine is left, and a call on the client's idle allocator
// session fails on it, redials once and is refused.
func TestDaemonCloseTCP(t *testing.T) {
	start := runtime.NumGoroutine()
	release := make(chan struct{})
	reg := NewRegistry()
	reg.Register("block", func(env transport.Env, ctx *JobContext) error { <-release; return nil })
	r := newRigTCP(t, reg, "n0")
	h, err := SubmitJob(r.env, r.addr, JobRequest{Count: 1, Spec: ProcessSpec{Executable: "block"}})
	if err != nil {
		t.Fatal(err)
	}
	p := h.Processes[0]
	type reply struct {
		state State
		err   error
	}
	awaited := make(chan reply, 1)
	go func() {
		s, _, err := Await(r.env, p.QServerAddr, p.JobID, 10*time.Second)
		awaited <- reply{s, err}
	}()
	// The Await is busy once its handler parks on the process.
	waitParked(t, r.qs[0], p.JobID)
	before := r.dials.snapshot()
	r.alloc.Close(r.env)
	r.qs[0].Close(r.env)
	close(release)
	if got := <-awaited; got.err != nil || got.state != StateDone {
		t.Fatalf("Await busy across Close = %v, %v; want DONE", got.state, got.err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the daemons started:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	if err := Release(r.env, r.addr, []string{p.Resource}); err == nil || r.dials.since(before)[r.addr] != 1 {
		t.Fatalf("Release after Close: err = %v, %d dials; want an error after 1 dial", err, r.dials.since(before)[r.addr])
	}
}

// TestRefusalNamesPackageOnceTCP: a Q server's refusal reads as its
// address and its own message, naming rmf once, and is a
// *nexus.StatusError.
func TestRefusalNamesPackageOnceTCP(t *testing.T) {
	r := newRigTCP(t, okReg(), "n0")
	_, _, err := Status(r.env, r.qaddrs[0], "n0.99")
	var se *nexus.StatusError
	if !errors.As(err, &se) {
		t.Fatalf("Status of an unknown job = %v, want a refusal", err)
	}
	if msg := err.Error(); strings.Count(msg, "rmf:") != 1 || !strings.HasPrefix(msg, r.qaddrs[0]+": ") {
		t.Fatalf("refusal %q: want %s and then rmf: once", msg, r.qaddrs[0])
	}
}

// countingEnv is a simnet process's env whose dials are counted per
// address.
type countingEnv struct {
	*simnet.Env
	dials map[string]int
}

func (e countingEnv) Dial(addr string) (transport.Conn, error) {
	e.dials[addr]++
	return e.Env.Dial(addr)
}

// TestSessionsKeptOnSimnet: on a simulated testbed, one host's heartbeats
// and rmf status polls each ride one kept session, as they do on sockets:
// the monitor and the Q server each see one dial for all the calls.
func TestSessionsKeptOnSimnet(t *testing.T) {
	const calls = 20
	k := sim.New()
	n := simnet.New(k)
	for _, h := range []string{"mon", "q", "cli"} {
		n.AddHost(h, simnet.HostConfig{})
	}
	n.Connect("cli", "mon", simnet.LinkConfig{Latency: time.Millisecond})
	n.Connect("cli", "q", simnet.LinkConfig{Latency: time.Millisecond})
	m := hbm.NewMonitor(time.Second)
	n.Node("mon").SpawnDaemonOn("monitor", func(e transport.Env) { _ = m.Serve(e, 7300, nil) })
	q := NewQServer("q", "c", 1, okReg())
	n.Node("q").SpawnDaemonOn("qserver", func(e transport.Env) { _ = q.Serve(e, QServerPort, "", nil) })
	dials := map[string]int{}
	n.Node("cli").SpawnOn("client", func(se transport.Env) {
		e := countingEnv{se.(*simnet.Env), dials}
		e.Sleep(time.Millisecond)
		id, err := Submit(e, "q:7101", ProcessSpec{Executable: "ok"})
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < calls; i++ {
			if err := hbm.Beat(e, "mon:7300", "cli"); err != nil {
				t.Error(err)
			}
			if _, _, err := Status(e, "q:7101", id); err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if dials["mon:7300"] != 1 || dials["q:7101"] != 1 {
		t.Fatalf("dials %v for %d beats and %d polls; want 1 to each daemon", dials, calls, calls)
	}
}
