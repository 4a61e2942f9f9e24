package rmf

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// awaitPrograms are the three processes the Await checks need: one that has
// ended by the time anyone asks, one that fails a little later, and one that
// outlives every hold.
func awaitPrograms() *Registry {
	reg := NewRegistry()
	reg.Register("quick", func(env transport.Env, ctx *JobContext) error { return nil })
	reg.Register("slowfail", func(env transport.Env, ctx *JobContext) error {
		env.Sleep(30 * time.Millisecond)
		return errAwaitDisk
	})
	reg.Register("long", func(env transport.Env, ctx *JobContext) error {
		env.Sleep(400 * time.Millisecond)
		return nil
	})
	return reg
}

var errAwaitDisk = errors.New("scratch disk full")

// checkAwait is the contract of opAwait, written against transport.Env so
// the same body runs on sockets and in the simulator. It reports with
// t.Errorf only: in the simulator it runs inside a process.
func checkAwait(t *testing.T, env transport.Env, qaddr string) {
	submit := func(exe string) string {
		id, err := Submit(env, qaddr, ProcessSpec{Executable: exe})
		if err != nil {
			t.Errorf("submit %s: %v", exe, err)
		}
		return id
	}

	// A process that has ended is answered at once, whatever the hold.
	id := submit("quick")
	if state, _, err := Await(env, qaddr, id, time.Second); err != nil || state != StateDone {
		t.Errorf("Await(quick) = %v, %v, want DONE", state, err)
	}
	start := env.Now()
	state, _, err := Await(env, qaddr, id, time.Hour)
	if err != nil || state != StateDone {
		t.Errorf("Await(ended process) = %v, %v, want DONE", state, err)
	}
	if waited := env.Now() - start; waited > 250*time.Millisecond {
		t.Errorf("Await on an ended process held the caller %v", waited)
	}

	// A process that ends during the hold is answered when it ends, with the
	// failure it ended with.
	id = submit("slowfail")
	start = env.Now()
	state, msg, err := Await(env, qaddr, id, 5*time.Second)
	if err != nil || state != StateFailed || msg != errAwaitDisk.Error() {
		t.Errorf("Await(slowfail) = %v, %q, %v, want FAILED with %q", state, msg, err, errAwaitDisk)
	}
	if waited := env.Now() - start; waited < 25*time.Millisecond || waited > time.Second {
		t.Errorf("Await(hold 5s) on a 30 ms process returned after %v", waited)
	}

	// A process that outlives the hold is answered at its end with the state
	// it is in.
	id = submit("long")
	start = env.Now()
	state, _, err = Await(env, qaddr, id, 50*time.Millisecond)
	if err != nil || state.ended() {
		t.Errorf("Await(hold 50ms) on a 400 ms process = %v, %v, want a running state", state, err)
	}
	if waited := env.Now() - start; waited < 50*time.Millisecond || waited > 300*time.Millisecond {
		t.Errorf("Await(hold 50ms) returned after %v", waited)
	}
	// A zero hold is Status.
	if state, _, err := Await(env, qaddr, id, 0); err != nil || state != StateActive {
		t.Errorf("Await(hold 0) = %v, %v, want ACTIVE", state, err)
	}

	if _, _, err := Await(env, qaddr, "nobody.1", time.Second); err == nil || !strings.Contains(err.Error(), ErrUnknownJob.Error()) {
		t.Errorf("Await(unknown id) = %v, want %v", err, ErrUnknownJob)
	}
	if _, _, err := Await(env, qaddr, id, -time.Second); err == nil || !strings.Contains(err.Error(), "malformed await") {
		t.Errorf("Await(negative hold) = %v, want it refused", err)
	}
}

func TestAwaitTCP(t *testing.T) {
	env, _, qAddrs := startRMFTCP(t, awaitPrograms())
	checkAwait(t, env, qAddrs[0])
}

// TestAwaitManyWaitersTCP: every handler parked on one process is woken by
// its end, from goroutines that race each other and finish for the record.
func TestAwaitManyWaitersTCP(t *testing.T) {
	env, _, qAddrs := startRMFTCP(t, awaitPrograms())
	id, err := Submit(env, qAddrs[0], ProcessSpec{Executable: "slowfail"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			state, msg, err := Await(env, qAddrs[0], id, 5*time.Second)
			if err != nil || state != StateFailed || msg != errAwaitDisk.Error() {
				t.Errorf("Await = %v, %q, %v, want FAILED with %q", state, msg, err, errAwaitDisk)
			}
			if waited := time.Since(start); waited > time.Second {
				t.Errorf("Await(hold 5s) on a 30 ms process returned after %v", waited)
			}
		}()
	}
	wg.Wait()
}

// awaitSim is one Q server host, its allocator and a client host on a LAN.
func awaitSim() (*sim.Kernel, *simnet.Network) {
	k := sim.New()
	n := simnet.New(k)
	lan := simnet.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: 12 << 20}
	n.AddRouter("sw", "")
	for _, h := range []string{"alloc", "q0", "client"} {
		n.AddHost(h, simnet.HostConfig{})
		n.Connect(h, "sw", lan)
	}
	alloc := NewAllocator()
	n.Node("alloc").SpawnDaemonOn("alloc", func(e transport.Env) {
		_ = alloc.Serve(e, AllocatorPort, nil)
	})
	q := NewQServer("q0", "c", 2, awaitPrograms())
	n.Node("q0").SpawnDaemonOn("qserver", func(e transport.Env) {
		e.Sleep(time.Millisecond) // allocator binds first
		_ = q.Serve(e, QServerPort, "alloc:7100", nil)
	})
	return k, n
}

func TestAwaitInSim(t *testing.T) {
	k, n := awaitSim()
	n.Node("client").SpawnOn("qclient", func(e transport.Env) {
		e.Sleep(5 * time.Millisecond)
		checkAwait(t, e, "q0:7101")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
}

// TestWaitSurfacesQServerCrashDuringHold: the Q server's host dies while the
// job manager's Await is parked on it. Wait must come back with an error when
// the connection does, not sit out the hold or hang.
func TestWaitSurfacesQServerCrashDuringHold(t *testing.T) {
	k, n := awaitSim()
	var waitErr error
	var returned time.Duration
	n.Node("client").SpawnOn("qclient", func(e transport.Env) {
		e.Sleep(5 * time.Millisecond)
		h, err := SubmitJob(e, "alloc:7100", JobRequest{Count: 1, Spec: ProcessSpec{Executable: "long"}})
		if err != nil {
			waitErr = err
			return
		}
		waitErr = h.Wait(e, 5*time.Second, time.Minute)
		returned = e.Now()
	})
	if err := n.ApplyPlan((&simnet.FaultPlan{}).Crash("q0", 100*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if waitErr == nil {
		t.Fatal("Wait reported success for a process whose Q server crashed under it")
	}
	if returned < 100*time.Millisecond || returned > time.Second {
		t.Fatalf("Wait returned at %v (err %v), want shortly after the crash at 100ms", returned, waitErr)
	}
}

// TestQServerRejectsBadSubmitCounts: argument and environment counts the
// frame cannot hold (negative, or far beyond its bytes) must get an error
// reply before they size an allocation, and the Q server must keep serving.
func TestQServerRejectsBadSubmitCounts(t *testing.T) {
	env, _, qAddrs := startRMFTCP(t, awaitPrograms())
	// A submit that declares its counts and carries nothing after them.
	declare := func(counts ...int32) *nexus.Buffer {
		req := nexus.NewBuffer()
		req.PutInt32(opSubmit)
		req.PutString("quick")
		for _, c := range counts {
			req.PutInt32(c)
		}
		return req
	}
	for _, count := range []int32{-1, 1 << 30} {
		if _, err := roundTrip(env, qAddrs[0], declare(count)); err == nil || !strings.Contains(err.Error(), "malformed submit") {
			t.Fatalf("submit with %d arguments: err = %v, want malformed submit", count, err)
		}
		if _, err := roundTrip(env, qAddrs[0], declare(0, count)); err == nil || !strings.Contains(err.Error(), "malformed environment") {
			t.Fatalf("submit with %d environment entries: err = %v, want malformed environment", count, err)
		}
	}
	if _, err := Submit(env, qAddrs[0], ProcessSpec{Executable: "quick", Args: []string{"a"}, Env: map[string]string{"K": "v"}}); err != nil {
		t.Fatalf("submit after bad counts: %v", err)
	}
}
