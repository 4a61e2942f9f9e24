package rmf

import (
	"strings"
	"testing"
	"time"

	"nxcluster/internal/hbm"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

func TestAllocatorSkipsDownResources(t *testing.T) {
	a := NewAllocator()
	a.Register("q0", "q0:7101", "c", 4)
	a.Register("q1", "q1:7101", "c", 4)

	// Load up q0, then declare it dead: its slots clear and it drops out of
	// selection entirely.
	if _, _, err := a.allocate(2, ""); err != nil {
		t.Fatal(err)
	}
	a.SetHealth("q0", hbm.Down)
	if got := a.Load("q0"); got != 0 {
		t.Fatalf("load after DOWN = %d, want 0", got)
	}
	names, _, err := a.allocate(3, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "q0" {
			t.Fatalf("allocated on DOWN resource: %v", names)
		}
	}
	if a.Health("q0") != hbm.Down || a.Health("q1") != hbm.Up {
		t.Fatalf("health = %v, %v", a.Health("q0"), a.Health("q1"))
	}
	// LATE is a warning, not a death sentence: still eligible.
	a.SetHealth("q1", hbm.Late)
	if _, _, err := a.allocate(1, ""); err != nil {
		t.Fatalf("LATE resource refused work: %v", err)
	}
	// Recovery: an UP classification restores eligibility with a clean slate.
	a.SetHealth("q0", hbm.Up)
	names, _, err = a.allocate(1, "")
	if err != nil || names[0] != "q0" {
		t.Fatalf("recovered resource not preferred: %v, %v", names, err)
	}
	// Unknown names are ignored, not created.
	a.SetHealth("ghost", hbm.Down)
	if a.Health("ghost") != hbm.Down {
		t.Fatal("unknown resource should read as Down")
	}
}

// TestJobRequeuedAfterQServerCrash runs the full detection-and-recovery
// loop in the simulator: a job lands on q0 (alphabetical tie-break), q0's
// host crashes mid-run, the heartbeat monitor classifies it DOWN, the
// watcher feeds that to the allocator, and the Q client requeues the
// process onto q1 — where it completes.
func TestJobRequeuedAfterQServerCrash(t *testing.T) {
	k := sim.New()
	n := simnet.New(k)
	for _, h := range []string{"mon", "alloc", "q0", "q1", "client"} {
		n.AddHost(h, simnet.HostConfig{})
	}
	n.AddRouter("sw", "")
	lan := simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: 12 << 20}
	for _, h := range []string{"mon", "alloc", "q0", "q1", "client"} {
		n.Connect(h, "sw", lan)
	}

	mon := hbm.NewMonitor(200 * time.Millisecond)
	n.Node("mon").SpawnDaemonOn("monitor", func(e transport.Env) {
		_ = mon.Serve(e, 7300, nil)
	})

	alloc := NewAllocator()
	n.Node("alloc").SpawnDaemonOn("alloc", func(e transport.Env) {
		alloc.WatchHBM(e, "mon:7300", 200*time.Millisecond)
		_ = alloc.Serve(e, AllocatorPort, nil)
	})

	reg := NewRegistry()
	var completedOn []string
	reg.Register("spin", func(env transport.Env, ctx *JobContext) error {
		env.Sleep(2 * time.Second) // long enough to be mid-flight at the crash
		completedOn = append(completedOn, ctx.Resource)
		ctx.Stdout.WriteString("done on " + ctx.Resource)
		return nil
	})
	for _, name := range []string{"q0", "q1"} {
		res := name
		q := NewQServer(res, "c", 4, reg)
		n.Node(res).SpawnDaemonOn("qserver-"+res, func(e transport.Env) {
			e.Sleep(time.Millisecond) // allocator binds first
			_ = q.Serve(e, QServerPort, "alloc:7100", nil)
		})
		rep := &hbm.Reporter{MonitorAddr: "mon:7300", Name: res, Interval: 200 * time.Millisecond}
		n.Node(res).SpawnDaemonOn("reporter-"+res, func(e transport.Env) {
			e.Sleep(2 * time.Millisecond)
			rep.Start(e)
			e.Sleep(time.Hour) // hold the daemon; the reporter beats as a service
		})
	}

	var jobErr error
	var h *JobHandle
	n.Node("client").SpawnOn("qclient", func(e transport.Env) {
		e.Sleep(100 * time.Millisecond)
		var err error
		h, err = SubmitJob(e, "alloc:7100", JobRequest{Count: 1, Spec: ProcessSpec{Executable: "spin"}})
		if err != nil {
			jobErr = err
			return
		}
		if h.Processes[0].Resource != "q0" {
			t.Errorf("job landed on %s, want q0", h.Processes[0].Resource)
		}
		h.Recovery = &RecoveryPolicy{StatusRetries: 3}
		jobErr = h.Wait(e, 100*time.Millisecond, 15*time.Second)
	})
	if err := n.ApplyPlan((&simnet.FaultPlan{}).Crash("q0", time.Second)); err != nil {
		t.Fatal(err)
	}

	// Monitor, reporters and the HBM watcher tick forever: drive to a horizon.
	k.RunUntil(20 * time.Second)
	k.Shutdown()

	if jobErr != nil {
		t.Fatalf("Wait = %v", jobErr)
	}
	if h.Requeues != 1 {
		t.Errorf("requeues = %d, want 1", h.Requeues)
	}
	if len(completedOn) != 1 || completedOn[0] != "q1" {
		t.Errorf("completed on %v, want [q1]", completedOn)
	}
	if alloc.Health("q0") != hbm.Down {
		t.Errorf("allocator view of q0 = %v, want DOWN", alloc.Health("q0"))
	}
	if alloc.Health("q1") != hbm.Up {
		t.Errorf("allocator view of q1 = %v, want UP", alloc.Health("q1"))
	}
}

// holdReg runs "hold", which blocks on n0 until release is closed and ends
// at once anywhere else.
func holdReg(release <-chan struct{}) *Registry {
	reg := NewRegistry()
	reg.Register("hold", func(env transport.Env, ctx *JobContext) error {
		if ctx.Resource == "n0" {
			<-release
		}
		return nil
	})
	return reg
}

// TestRequeueOnQServerCloseTCP: n0's Q server is closed while Wait's held
// Await is parked on it under a RecoveryPolicy. The parked call is answered,
// the calls after it fail, and the process is requeued onto n1 exactly once:
// the lost slot, still held, steers the replacement off n0.
func TestRequeueOnQServerCloseTCP(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	r := newRigTCP(t, holdReg(release), "n0", "n1")
	h, err := SubmitJob(r.env, r.addr, JobRequest{Count: 1, Spec: ProcessSpec{Executable: "hold"}})
	if err != nil {
		t.Fatal(err)
	}
	lost := h.Processes[0]
	if lost.Resource != "n0" {
		t.Fatalf("job landed on %s, want n0", lost.Resource)
	}
	h.Recovery = &RecoveryPolicy{StatusRetries: 3}
	waited := make(chan error, 1)
	go func() { waited <- h.Wait(r.env, 100*time.Millisecond, 10*time.Second) }()
	waitParked(t, r.qs[0], lost.JobID)
	r.qs[0].Close(r.env)
	if err := <-waited; err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if h.Requeues != 1 || h.Processes[0].Resource != "n1" {
		t.Fatalf("%d requeues, process on %s; want 1 requeue onto n1", h.Requeues, h.Processes[0].Resource)
	}
	for _, name := range []string{"n0", "n1"} {
		if l := r.alloc.Load(name); l != 0 {
			t.Errorf("%s holds %d slots after Wait released the job", name, l)
		}
	}
}

// TestRequeueTimeoutReleasesOnceTCP: a requeue that cannot place its
// process before the deadline leaves the lost slot to ReleaseSlots, which
// releases it once; a second release would take the slot another job holds
// on the same resource.
func TestRequeueTimeoutReleasesOnceTCP(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	r := newRigTCP(t, holdReg(release), "n0")
	h, err := SubmitJob(r.env, r.addr, JobRequest{Count: 1, Spec: ProcessSpec{Executable: "hold"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Allocate(r.env, r.addr, 1, ""); err != nil { // another job's slot on n0
		t.Fatal(err)
	}
	r.qs[0].Close(r.env) // n0 is the only resource: every placement fails
	h.Recovery = &RecoveryPolicy{StatusRetries: 2, Backoff: transport.Backoff{Base: 5 * time.Millisecond, Max: 20 * time.Millisecond}}
	if err := h.Wait(r.env, 10*time.Millisecond, 300*time.Millisecond); err == nil || !strings.Contains(err.Error(), "requeue") {
		t.Fatalf("Wait = %v, want the requeue to time out", err)
	}
	if l := r.alloc.Load("n0"); l != 1 {
		t.Fatalf("n0 holds %d slots after the job released its own, want 1 (the other job's)", l)
	}
}
