package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/hbm"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/proxy"
	"nxcluster/internal/simnet"
)

// baseConfig is the Table-4-style wide-area run every chaos test starts
// from: the 20-processor wide-area cluster through the Nexus Proxy, with
// the full control plane up.
func baseConfig() ChaosConfig {
	return ChaosConfig{
		Items:    24,
		Capacity: 3,
		System:   cluster.SystemWide,
		UseProxy: true,
		FT: knapsack.FTParams{
			Params: knapsack.Params{
				Interval:  4,
				StealUnit: 4,
				NodeCost:  8 * time.Millisecond,
			},
			SlaveTimeout: 2500 * time.Millisecond,
			StealTimeout: 500 * time.Millisecond,
			StealRetries: 10,
		},
		Horizon: 90 * time.Second,
		Keepalive: proxy.KeepaliveConfig{
			Interval: 200 * time.Millisecond,
			Timeout:  400 * time.Millisecond,
		},
		ControlPlane: true,
	}
}

// chaosPlan is the seeded fault schedule: one COMPaS node (which carries a
// knapsack rank, a Q server, and a heartbeat reporter) crashes at 1s and
// restarts at 5s; the WAN flaps for a second mid-search; and the firewall
// boundary link flaps long enough to kill the proxy registration session.
func chaosPlan() *simnet.FaultPlan {
	p := &simnet.FaultPlan{}
	p.CrashWindow("compas00", 1*time.Second, 5*time.Second)
	p.LinkOutage(cluster.RWCPOuter, "etl-gw", 3*time.Second, 4*time.Second)
	p.LinkOutage("rwcp-gw", cluster.RWCPOuter, 6*time.Second, 7500*time.Millisecond)
	return p
}

// runOnce fails the test on harness errors.
func runOnce(t *testing.T, cfg ChaosConfig) *ChaosReport {
	t.Helper()
	rep, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestChaosBaselineFaultFree pins the healthy run: exact optimum, every
// node expanded exactly once, a single registration session, no requeues.
func TestChaosBaselineFaultFree(t *testing.T) {
	rep := runOnce(t, baseConfig())
	if !rep.Completed {
		t.Fatal("baseline did not complete before the horizon")
	}
	if rep.Best != rep.WantBest {
		t.Fatalf("baseline best = %d, want %d", rep.Best, rep.WantBest)
	}
	if rep.TotalTraversed != rep.WantNodes {
		t.Fatalf("baseline traversed %d nodes, want exactly %d", rep.TotalTraversed, rep.WantNodes)
	}
	for i, e := range rep.RankErrs {
		if e != nil {
			t.Errorf("rank %d: %v", i, e)
		}
	}
	if rep.InnerRegistrations != 1 {
		t.Errorf("registrations = %d, want 1", rep.InnerRegistrations)
	}
	if rep.JobErr != nil || rep.JobRequeues != 0 {
		t.Errorf("job err=%v requeues=%d, want clean run", rep.JobErr, rep.JobRequeues)
	}
	for name, h := range rep.HBM {
		if h != hbm.Up {
			t.Errorf("HBM %s = %v, want Up", name, h)
		}
	}
	t.Logf("baseline: elapsed=%v traversed=%d job on %s", rep.Elapsed, rep.TotalTraversed, rep.JobResource)
}

// TestChaosRecoveryEndToEnd is the acceptance scenario: under the full
// fault plan the optimum must be bit-exact, the inner relay must have
// re-registered, HBM must show the restarted Q server UP again, and the
// RMF job must have been requeued off the crashed node and completed.
func TestChaosRecoveryEndToEnd(t *testing.T) {
	base := runOnce(t, baseConfig())
	if !base.Completed || base.Best != base.WantBest {
		t.Fatalf("baseline broken: completed=%v best=%d want=%d", base.Completed, base.Best, base.WantBest)
	}

	cfg := baseConfig()
	cfg.Plan = chaosPlan()
	rep := runOnce(t, cfg)

	if !rep.Completed {
		t.Fatal("faulted run did not complete before the horizon")
	}
	if rep.Best != rep.WantBest {
		t.Fatalf("faulted best = %d, want %d: faults changed the optimum", rep.Best, rep.WantBest)
	}
	// Reclaimed batches are re-expanded; work can only grow, never vanish.
	if rep.TotalTraversed < rep.WantNodes {
		t.Fatalf("faulted traversed %d < %d: work was lost", rep.TotalTraversed, rep.WantNodes)
	}
	// Losing a slave for good slows the search but must not hang it.
	if rep.Elapsed < base.Elapsed {
		t.Errorf("faulted elapsed %v < baseline %v", rep.Elapsed, base.Elapsed)
	}
	if rep.Elapsed > 5*base.Elapsed {
		t.Errorf("faulted elapsed %v > 5x baseline %v: recovery too slow", rep.Elapsed, base.Elapsed)
	}
	// compas00 carries rank 4; its process was killed, so its error slot
	// stays nil and nobody else may have failed.
	for i, e := range rep.RankErrs {
		if e != nil {
			t.Errorf("rank %d: %v", i, e)
		}
	}
	if rep.Orphans != 0 {
		t.Errorf("%d orphaned slaves, want 0 (master survived)", rep.Orphans)
	}
	// The boundary flap outlives the keepalive timeout: the inner relay
	// must have established at least one fresh registration session.
	if rep.InnerRegistrations < 2 {
		t.Errorf("registrations = %d, want >= 2 after boundary flap", rep.InnerRegistrations)
	}
	if !rep.OuterStats.InnerConnected {
		t.Error("outer server has no live registration session at the horizon")
	}
	// The job was running on compas00 when it crashed: RMF must requeue it
	// onto a surviving COMPaS node and see it through.
	if rep.JobErr != nil {
		t.Errorf("job error: %v", rep.JobErr)
	}
	if rep.JobRequeues < 1 {
		t.Errorf("job requeues = %d, want >= 1", rep.JobRequeues)
	}
	if rep.JobResource == "compas00" {
		t.Errorf("job finished on the crashed node %s", rep.JobResource)
	}
	// The restarted host's Q server reporter beats again: UP at horizon.
	if h := rep.HBM["compas00"]; h != hbm.Up {
		t.Errorf("HBM compas00 = %v at horizon, want Up after restart", h)
	}
	if h := rep.HBM["nxproxy-inner"]; h != hbm.Up {
		t.Errorf("HBM nxproxy-inner = %v, want Up", h)
	}
	t.Logf("faulted: elapsed=%v (baseline %v) traversed=%d (+%d) registrations=%d requeues=%d job on %s",
		rep.Elapsed, base.Elapsed, rep.TotalTraversed, rep.TotalTraversed-rep.WantNodes,
		rep.InnerRegistrations, rep.JobRequeues, rep.JobResource)
}

// TestChaosDeterministic replays the identical faulted scenario and demands
// a bit-identical report: same elapsed virtual time, same traversal count,
// same recovery counters. Fault injection must not break reproducibility.
func TestChaosDeterministic(t *testing.T) {
	run := func() *ChaosReport {
		cfg := baseConfig()
		cfg.Plan = chaosPlan()
		return runOnce(t, cfg)
	}
	a, b := run(), run()
	if a.Best != b.Best || a.Elapsed != b.Elapsed || a.TotalTraversed != b.TotalTraversed {
		t.Fatalf("runs diverge: best %d/%d elapsed %v/%v traversed %d/%d",
			a.Best, b.Best, a.Elapsed, b.Elapsed, a.TotalTraversed, b.TotalTraversed)
	}
	if a.InnerRegistrations != b.InnerRegistrations || a.JobRequeues != b.JobRequeues {
		t.Fatalf("recovery counters diverge: registrations %d/%d requeues %d/%d",
			a.InnerRegistrations, b.InnerRegistrations, a.JobRequeues, b.JobRequeues)
	}
}

// TestChaosRefusedPlanShutsDown: a fault plan whose crash names no host
// fails the run with the plan's error, and the testbed already built for it
// (relays, control plane) is shut down on that path too: every process
// goroutine it started is gone once RunChaos returns.
func TestChaosRefusedPlanShutsDown(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := baseConfig()
	cfg.Plan = &simnet.FaultPlan{}
	cfg.Plan.CrashWindow("compas99", time.Second, 2*time.Second)
	_, err := RunChaos(cfg)
	if err == nil || !strings.Contains(err.Error(), `simnet: fault plan: "compas99" is not a host`) {
		t.Fatalf("RunChaos = %v, want the plan's not-a-host error", err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d: the refused run left its testbed running", before, after)
	}
}
