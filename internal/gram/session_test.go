package gram

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nxcluster/internal/auth"
	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/rmf"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// okRegistry runs "ok", a program that succeeds at once.
func okRegistry() *rmf.Registry {
	reg := rmf.NewRegistry()
	reg.Register("ok", func(e transport.Env, ctx *rmf.JobContext) error { return nil })
	return reg
}

// serveGatekeeper starts gk on port (0 for any) of env and returns its
// address.
func serveGatekeeper(t *testing.T, env transport.Env, gk *Gatekeeper, port int) string {
	t.Helper()
	ready := make(chan string, 1)
	failed := make(chan error, 1)
	env.Spawn("gk", func(e transport.Env) {
		if err := gk.Serve(e, port, func(a string) { ready <- a }); err != nil {
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

// authCounter counts the gatekeeper's "authenticated" trace lines, one per
// session it accepted.
type authCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (a *authCounter) trace(format string, args ...interface{}) {
	if !strings.HasPrefix(format, "gatekeeper: authenticated") {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == nil {
		a.n = make(map[string]int)
	}
	a.n[args[0].(string)]++
}

func (a *authCounter) of(subject string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n[subject]
}

// submitAndWait submits an "ok" job and polls its status until it is done.
func submitAndWait(env transport.Env, addr string, cred auth.Credential) error {
	contact, err := Submit(env, addr, cred, `&(executable=ok)`)
	if err != nil {
		return err
	}
	for {
		state, msg, err := Status(env, addr, cred, contact)
		switch {
		case err != nil:
			return err
		case state == stateDone:
			return nil
		case state == stateFailed:
			return errors.New(msg)
		}
		env.Sleep(time.Microsecond)
	}
}

// TestSessionsSharedTCP: two goroutines share one TCPEnv and each run 200
// submit-then-poll cycles. Calls take an idle session and keep it after the
// reply, so the gatekeeper authenticates at most two connections for the
// subject, one per caller in flight.
func TestSessionsSharedTCP(t *testing.T) {
	env, cred, _, gk := newGatekeeperTCP(t, okRegistry())
	var auths authCounter
	gk.SetTrace(auths.trace)
	addr := serveGatekeeper(t, env, gk, 0)
	t.Cleanup(func() { gk.Close(env) })

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := submitAndWait(env, addr, cred); err != nil {
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
	if n := auths.of(cred.Subject); n < 1 || n > 2 {
		t.Fatalf("the gatekeeper authenticated %d sessions for %s, want 1 or 2", n, cred.Subject)
	}
}

// TestSessionNotReusedWithWrongKeyTCP: a caller with a granted subject but
// another key does not get the idle session that the right key
// authenticated. It dials, runs the handshake itself and is refused, for
// every call; the right credential then goes on on its own session.
func TestSessionNotReusedWithWrongKeyTCP(t *testing.T) {
	env, cred, _, gk := newGatekeeperTCP(t, okRegistry())
	var auths authCounter
	gk.SetTrace(auths.trace)
	addr := serveGatekeeper(t, env, gk, 0)
	t.Cleanup(func() { gk.Close(env) })

	contact, err := Submit(env, addr, cred, `&(executable=ok)`)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := auth.NewCredential(cred.Subject)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Submit(env, addr, stale, `&(executable=ok)`); err == nil {
		t.Fatal("Submit with the subject's name and a wrong key succeeded")
	}
	if _, _, err := Status(env, addr, stale, contact); err == nil {
		t.Fatal("Status with the subject's name and a wrong key succeeded")
	}
	if _, err := List(env, addr, stale); err == nil {
		t.Fatal("List with the subject's name and a wrong key succeeded")
	}
	if got, err := List(env, addr, cred); err != nil || len(got) != 1 || got[0] != contact {
		t.Fatalf("List with the right key = %v, %v; want [%s]", got, err, contact)
	}
	if n := auths.of(cred.Subject); n != 1 {
		t.Fatalf("the gatekeeper authenticated %d sessions for %s, want 1", n, cred.Subject)
	}
}

// TestSessionRetryTCP: a gatekeeper restarted on the same port has ended
// the client's idle session, so the next Submit and the next Status fail on
// it before any reply byte and each succeed on exactly one new session. A
// request that fails on a new session is returned, not sent again.
func TestSessionRetryTCP(t *testing.T) {
	env, cred, kr, gk := newGatekeeperTCP(t, okRegistry())
	var dials atomic.Int32
	env.DialGuard = func(string) error { dials.Add(1); return nil }
	addr := serveGatekeeper(t, env, gk, 0)
	_, port, err := transport.SplitAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	restart := func() {
		t.Helper()
		gk.Close(env)
		gk = NewGatekeeper(Config{Keyring: kr, Registry: okRegistry()})
		serveGatekeeper(t, env, gk, port)
	}
	t.Cleanup(func() { gk.Close(env) })
	// calls runs one client call and returns how many dials it made.
	calls := func(call func() error) (int32, error) {
		before := dials.Load()
		err := call()
		return dials.Load() - before, err
	}

	if n, err := calls(func() error { _, err := Submit(env, addr, cred, `&(executable=ok)`); return err }); err != nil || n != 1 {
		t.Fatalf("first Submit: %d dials, err = %v; want 1 dial", n, err)
	}
	restart()
	var contact string
	if n, err := calls(func() (err error) { contact, err = Submit(env, addr, cred, `&(executable=ok)`); return err }); err != nil || n != 1 {
		t.Fatalf("Submit after a restart: %d dials, err = %v; want 1 dial (the retry)", n, err)
	}
	// The next gatekeeper learns the same contact from another subject's
	// submit, on a session of that subject's own.
	other, err := auth.NewCredential("/O=Grid/CN=other")
	if err != nil {
		t.Fatal(err)
	}
	kr.Grant(other, "other")
	restart()
	if c, err := Submit(env, addr, other, `&(executable=ok)`); err != nil || c != contact {
		t.Fatalf("other subject's Submit = %q, %v; want %q", c, err, contact)
	}
	if n, err := calls(func() error { _, _, err := Status(env, addr, cred, contact); return err }); err != nil || n != 1 {
		t.Fatalf("Status after a restart: %d dials, err = %v; want 1 dial (the retry)", n, err)
	}

	// A server that authenticates and then hangs up on every request: the
	// reused session fails, and so does its one retry, which is returned.
	gk.Close(env)
	l, err := env.Listen(port)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(env)
	env.Spawn("hang-up", func(e transport.Env) {
		for {
			c, err := l.Accept(e)
			if err != nil {
				return
			}
			if _, err := auth.Accept(e, c, kr); err == nil {
				_, _ = nexus.ReadFrame(transport.Stream{Env: e, Conn: c}, 0)
			}
			_ = c.Close(e)
		}
	})
	for _, c := range []auth.Credential{cred, other} {
		if n, err := calls(func() error { _, _, err := Status(env, addr, c, contact); return err }); err == nil || n != 1 {
			t.Fatalf("Status as %s against a server that hangs up: %d dials, err = %v; want 1 dial and an error", c.Subject, n, err)
		}
	}
}

// TestGatekeeperCloseTCP: Close ends an idle session at once and a busy one
// after its reply, which the client receives: here an rmf Submit that Close
// finds placing its job, held in the allocator. Then no session goroutine is
// left.
func TestGatekeeperCloseTCP(t *testing.T) {
	start := runtime.NumGoroutine()
	env, cred, kr, _ := newGatekeeperTCP(t, okRegistry())
	entered, release := make(chan struct{}), make(chan struct{})
	_, allocAddr, stopRMF := startRMFTCP(t, env, okRegistry(), func(format string, args ...interface{}) {
		if strings.HasPrefix(format, "allocator: selected") {
			close(entered)
			<-release
		}
	}, "q0")
	gk := NewGatekeeper(Config{Keyring: kr, Registry: okRegistry(), AllocatorAddr: allocAddr})
	addr := serveGatekeeper(t, env, gk, 0)
	other, err := auth.NewCredential("/O=Grid/CN=idle")
	if err != nil {
		t.Fatal(err)
	}
	kr.Grant(other, "idle")
	if _, err := List(env, addr, other); err != nil { // leaves an idle session
		t.Fatal(err)
	}
	submitted := make(chan error, 1)
	go func() {
		_, err := Submit(env, addr, cred, `&(executable=ok)(jobmanager=rmf)`)
		submitted <- err
	}()
	<-entered
	gk.Close(env)
	close(release)
	if err := <-submitted; err != nil {
		t.Fatalf("Submit placing across Close: %v", err)
	}
	stopRMF()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the gatekeeper started:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionCarriesEachCallersTraceInSim: two traced jobs submitted one
// after the other on one kept session each run under their own trace. The
// client sets a reused session's baggage to its caller's context, and the
// gatekeeper adopts the baggage per request, not once per session.
func TestSessionCarriesEachCallersTraceInSim(t *testing.T) {
	k := sim.New()
	n := simnet.New(k)
	o := obs.New()
	n.Obs = o
	n.AddHost("client", simnet.HostConfig{})
	n.AddHost("gk", simnet.HostConfig{})
	n.Connect("client", "gk", simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: 1 << 20})
	cred, err := auth.NewCredential("/O=Grid/CN=tracer")
	if err != nil {
		t.Fatal(err)
	}
	kr := auth.NewKeyring()
	kr.Grant(cred, "tracer")
	gk := NewGatekeeper(Config{Keyring: kr, Registry: okRegistry()})
	var auths authCounter
	gk.SetTrace(auths.trace)
	n.Node("gk").SpawnDaemonOn("gatekeeper", func(e transport.Env) {
		_ = gk.Serve(e, DefaultPort, nil)
	})
	var traces []uint64
	var jobErr error
	n.Node("client").SpawnOn("client", func(e transport.Env) {
		e.Sleep(time.Millisecond)
		for i := 0; i < 2 && jobErr == nil; i++ {
			tc := o.BeginTrace(e.Now(), "test", "job", "client")
			obs.SetCtx(e, tc)
			traces = append(traces, tc.Trace)
			jobErr = submitAndWait(e, "gk:2119", cred)
			o.EndSpan(e.Now(), tc, "test", "job", "client")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if jobErr != nil {
		t.Fatal(jobErr)
	}
	if got := auths.of(cred.Subject); got != 1 {
		t.Fatalf("the gatekeeper authenticated %d sessions, want 1 kept session", got)
	}
	var forks []uint64
	for _, ev := range o.Events() {
		if ev.Ph == obs.PhaseBegin && ev.Cat == "gram" && ev.Name == "fork" {
			forks = append(forks, ev.Trace)
		}
	}
	if len(forks) != 2 || forks[0] != traces[0] || forks[1] != traces[1] {
		t.Fatalf("fork spans ran in traces %v, want %v", forks, traces)
	}
}
