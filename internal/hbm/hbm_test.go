package hbm

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{Up: "UP", Late: "LATE", Down: "DOWN"} {
		if h.String() != want {
			t.Errorf("%d = %s", h, h.String())
		}
	}
}

func TestClassification(t *testing.T) {
	m := NewMonitor(time.Second) // grace 3s
	m.beat("p", 10*time.Second)
	cases := []struct {
		now  time.Duration
		want Health
	}{
		{10 * time.Second, Up},
		{11 * time.Second, Up},
		{12 * time.Second, Late},
		{14 * time.Second, Late},
		{14*time.Second + 1, Down},
		{time.Hour, Down},
	}
	for _, tc := range cases {
		h, err := m.Status("p", tc.now)
		if err != nil || h != tc.want {
			t.Errorf("Status at %v = %v, %v; want %v", tc.now, h, err, tc.want)
		}
	}
	if _, err := m.Status("ghost", 0); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown status = %v", err)
	}
}

// TestMonitorDetectsDeadProcessInSim runs the full loop: a reporter beats,
// the monitor sees UP; the reporter's host crashes, the monitor transitions
// the process to DOWN; a second reporter keeps beating throughout.
func TestMonitorDetectsDeadProcessInSim(t *testing.T) {
	k := sim.New()
	n := simnet.New(k)
	n.AddHost("mon", simnet.HostConfig{})
	n.AddHost("svc", simnet.HostConfig{})
	n.AddHost("flakyhost", simnet.HostConfig{})
	n.Connect("mon", "svc", simnet.LinkConfig{Latency: time.Millisecond})
	n.Connect("mon", "flakyhost", simnet.LinkConfig{Latency: time.Millisecond})

	m := NewMonitor(time.Second)
	n.Node("mon").SpawnDaemonOn("monitor", func(e transport.Env) {
		_ = m.Serve(e, 7300, nil)
	})

	flaky := &Reporter{MonitorAddr: "mon:7300", Name: "flaky", Interval: time.Second}
	steady := &Reporter{MonitorAddr: "mon:7300", Name: "steady", Interval: time.Second}
	n.Node("flakyhost").SpawnOn("flaky", func(e transport.Env) { flaky.Start(e) })
	// Crash at t=6s: the reporter stops beating without deregistering.
	k.After(6*time.Second, func() {
		if err := n.CrashHost("flakyhost"); err != nil {
			t.Error(err)
		}
	})
	var atFive, atTwenty map[string]Health
	var steadyBeats int64
	n.Node("svc").SpawnOn("driver", func(e transport.Env) {
		steady.Start(e)
		e.Sleep(5 * time.Second)
		var err error
		if atFive, err = QueryAll(e, "mon:7300"); err != nil {
			t.Error(err)
		}
		e.Sleep(15 * time.Second)
		if atTwenty, err = QueryAll(e, "mon:7300"); err != nil {
			t.Error(err)
		}
		steadyBeats = m.Beats("steady")
		steady.Stop() // graceful: the final deregister beat removes the record
	})
	k.RunUntil(60 * time.Second)
	k.Shutdown()

	if atFive["flaky"] != Up || atFive["steady"] != Up {
		t.Fatalf("at t=5s: %v, want both UP", atFive)
	}
	if len(atTwenty) != 2 || atTwenty["flaky"] != Down || atTwenty["steady"] != Up {
		t.Fatalf("at t=20s: %v, want flaky DOWN and steady UP", atTwenty)
	}
	if steadyBeats < 15 {
		t.Fatalf("steady beat only %d times", steadyBeats)
	}
	// steady.Stop deregistered on its way out; the crashed flaky's record
	// stays.
	final := m.Snapshot(20 * time.Second)
	if _, ok := final["steady"]; ok {
		t.Errorf("steady still registered after graceful Stop: %v", final)
	}
	if h, ok := final["flaky"]; !ok || h != Down {
		t.Errorf("flaky after its host crashed = %v, %v; want DOWN", h, ok)
	}
}

// TestCustomThresholds exercises LateAfter/DownAfter overrides: the
// UP->LATE->DOWN transitions must follow the explicit knobs, not the
// Interval/Grace-derived defaults.
func TestCustomThresholds(t *testing.T) {
	m := NewMonitor(time.Second) // defaults: late after 1s, down after 4s
	m.LateAfter = 3 * time.Second
	m.DownAfter = 10 * time.Second
	m.beat("p", 0)
	cases := []struct {
		now  time.Duration
		want Health
	}{
		{2 * time.Second, Up},
		{3 * time.Second, Up},
		{3*time.Second + 1, Late},
		{10 * time.Second, Late},
		{10*time.Second + 1, Down},
	}
	for _, tc := range cases {
		h, err := m.Status("p", tc.now)
		if err != nil || h != tc.want {
			t.Errorf("Status at %v = %v, %v; want %v", tc.now, h, err, tc.want)
		}
	}
}

// TestDeregisterOverWire checks the opDeregister round trip: a deregistered
// process vanishes from QueryAll instead of decaying to DOWN, and a later
// beat re-registers it from scratch.
func TestDeregisterOverWire(t *testing.T) {
	k := sim.New()
	n := simnet.New(k)
	n.AddHost("mon", simnet.HostConfig{})
	n.AddHost("svc", simnet.HostConfig{})
	n.Connect("mon", "svc", simnet.LinkConfig{Latency: time.Millisecond})

	m := NewMonitor(time.Second)
	n.Node("mon").SpawnDaemonOn("monitor", func(e transport.Env) {
		_ = m.Serve(e, 7300, nil)
	})
	n.Node("svc").SpawnOn("driver", func(e transport.Env) {
		if err := Beat(e, "mon:7300", "p"); err != nil {
			t.Error(err)
		}
		if all, err := QueryAll(e, "mon:7300"); err != nil || len(all) != 1 || all["p"] != Up {
			t.Errorf("after beat: %v, %v", all, err)
		}
		if err := Deregister(e, "mon:7300", "p"); err != nil {
			t.Error(err)
		}
		all, err := QueryAll(e, "mon:7300")
		if err != nil || len(all) != 0 {
			t.Errorf("QueryAll after deregister = %v, %v", all, err)
		}
		if err := Beat(e, "mon:7300", "p"); err != nil {
			t.Error(err)
		}
		if all, err := QueryAll(e, "mon:7300"); err != nil || len(all) != 1 || all["p"] != Up {
			t.Errorf("after re-registration: %v, %v", all, err)
		}
	})
	k.RunUntil(10 * time.Second)
	k.Shutdown()
	if got := m.Beats("p"); got != 1 {
		t.Errorf("beats after deregister+rebeat = %d, want 1 (counter reset)", got)
	}
}

func TestMonitorOverTCP(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	m := NewMonitor(50 * time.Millisecond)
	ready := make(chan string, 1)
	env.Spawn("mon", func(e transport.Env) {
		_ = m.Serve(e, 0, func(a string) { ready <- a })
	})
	addr := <-ready
	defer m.Close(env)

	if err := Beat(env, addr, "proc1"); err != nil {
		t.Fatal(err)
	}
	status := func() map[string]Health {
		t.Helper()
		all, err := QueryAll(env, addr)
		if err != nil {
			t.Fatal(err)
		}
		return all
	}
	if all := status(); all["proc1"] != Up {
		t.Fatalf("status = %v", all)
	}
	env.Sleep(300 * time.Millisecond) // interval+grace = 200ms
	if all := status(); all["proc1"] != Down {
		t.Fatalf("status after silence = %v", all)
	}
	// Recovery: a fresh beat brings it back UP.
	if err := Beat(env, addr, "proc1"); err != nil {
		t.Fatal(err)
	}
	if all := status(); len(all) != 1 || all["proc1"] != Up {
		t.Fatalf("status after recovery = %v", all)
	}
}

// TestQueryAllRefusesLyingCount: a list reply whose count its frame does not
// pay for is refused before anything is sized by it. The fake monitor
// answers with 9 bytes on the wire (frame length, status true, count 2^20);
// sizing the result map by that count would allocate tens of megabytes.
func TestQueryAllRefusesLyingCount(t *testing.T) {
	k := sim.New()
	n := simnet.New(k)
	n.AddHost("mon", simnet.HostConfig{})
	n.AddHost("cli", simnet.HostConfig{})
	n.Connect("mon", "cli", simnet.LinkConfig{Latency: time.Millisecond})
	n.Node("mon").SpawnDaemonOn("liar", func(e transport.Env) {
		l, err := e.Listen(7300)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(e)
		if err != nil {
			return
		}
		s := transport.Stream{Env: e, Conn: c}
		if _, err := nexus.ReadFrame(s, 0); err != nil {
			t.Error(err)
			return
		}
		resp := nexus.NewBuffer()
		resp.PutBool(true)
		resp.PutInt32(1 << 20)
		_ = nexus.WriteFrame(s, resp)
	})
	var err error
	var grew uint64
	n.Node("cli").SpawnOn("query", func(e transport.Env) {
		e.Sleep(time.Millisecond)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = QueryAll(e, "mon:7300")
		runtime.ReadMemStats(&after)
		grew = after.TotalAlloc - before.TotalAlloc
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err == nil {
		t.Fatal("QueryAll accepted a count of 2^20 entries in a 5-byte reply")
	}
	if grew > 1<<20 {
		t.Fatalf("QueryAll allocated %d bytes on a 5-byte reply", grew)
	}
}
