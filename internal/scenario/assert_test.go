package scenario

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/fleet"
	"nxcluster/internal/hbm"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/proxy"
)

// judged is one report an assertion row or a comparator reads: the row's
// argument, the run it judges (and, for a comparator, the baseline's), and
// the violation it must word — "" when the report satisfies it.
type judged struct {
	arg       any
	v, base   any
	violation string
}

// TestAssertionTable checks every assertion row and comparator of every kind
// through the table, by name, on synthetic reports: each must word its
// violation (the text is part of the suite's output) and pass a report that
// satisfies it. A row without both a violation and a satisfied case fails.
func TestAssertionTable(t *testing.T) {
	const sec = time.Second
	// solve is a knapsack run that found best of want and traversed
	// traversed of nodes in elapsed.
	solve := func(best, want, traversed, nodes int64, elapsed time.Duration) bench.Solve {
		return bench.Solve{
			WantBest: want, WantNodes: nodes, Completed: true,
			Result: knapsack.Result{Best: best, TotalTraversed: traversed, Elapsed: elapsed},
		}
	}
	healthy := func() *bench.ChaosReport {
		return &bench.ChaosReport{
			Solve:              solve(10, 10, 20, 20, 0),
			InnerRegistrations: 1, JobResource: "compas01", JobDone: sec,
			HBM: map[string]hbm.Health{"x": hbm.Up},
		}
	}
	withReport := func(f func(r *bench.ChaosReport)) *bench.ChaosReport {
		r := healthy()
		f(r)
		return r
	}
	bare := func(s bench.Solve) *bench.ChaosReport { return &bench.ChaosReport{Solve: s} }
	rows := func(latencies ...time.Duration) []bench.Table2Row {
		var out []bench.Table2Row
		for i, l := range latencies {
			out = append(out, bench.Table2Row{Path: "RWCP-Sun <-> COMPaS", Indirect: i%2 == 1, Latency: l})
		}
		return out
	}
	row := func(system string, s bench.Solve, speedup float64) bench.Table4Row {
		s.System = system
		return bench.Table4Row{Solve: s, Speedup: speedup}
	}
	wide := func(with, without time.Duration) *bench.KnapsackReport {
		return &bench.KnapsackReport{Rows: []bench.Table4Row{
			row("Wide-area Cluster (use Nexus Proxy)", bench.Solve{Result: knapsack.Result{Elapsed: with}}, 2),
			row("Wide-area Cluster (not use Nexus Proxy)", bench.Solve{Result: knapsack.Result{Elapsed: without}}, 3),
		}}
	}
	best := knapsack.NormalizedBest(10, 2)
	nodes := knapsack.NormalizedTreeNodes(10, 2)
	solved := func(b int64) *bench.KnapsackReport {
		return &bench.KnapsackReport{Rows: []bench.Table4Row{row("COMPaS", solve(b, best, nodes, nodes, 0), 1)}}
	}
	monitored := func(s bench.Solve) *bench.MonitorReport {
		return &bench.MonitorReport{Solve: s, Store: testStore(t, map[string][]int64{"a": {1, 2}, "b": {3}})}
	}
	sweep := func(wideGoodput float64) []bench.TransferPoint {
		return []bench.TransferPoint{
			{Streams: 1, LossRate: 0, Goodput: 500},
			{Streams: 1, LossRate: 0.02, Goodput: 100},
			{Streams: 8, LossRate: 0.02, Goodput: wideGoodput},
		}
	}
	grid := func(b, traversed int64, elapsed time.Duration) *bench.GridResult {
		return &bench.GridResult{Solve: solve(b, best, traversed, nodes, elapsed)}
	}
	fleetRun := func(r fleet.Result) *bench.FleetReport {
		return &bench.FleetReport{Config: fleet.Config{Jobs: 10}, Result: r}
	}

	cases := map[Kind]map[string][]judged{
		KindChaos: {
			"exact-optimum": {
				{nil, bare(bench.Solve{WantBest: 10}), nil, "did not complete"},
				{nil, bare(solve(9, 10, 20, 20, 0)), nil, "best = 9, want 10"},
				{nil, healthy(), nil, ""},
			},
			"all-work-done": {
				{nil, bare(solve(10, 10, 5, 10, 0)), nil, "work was lost"},
				{nil, healthy(), nil, ""},
			},
			"no-orphans": {
				{nil, bare(bench.Solve{Orphans: 2}), nil, "2 orphaned slaves"},
				{nil, healthy(), nil, ""},
			},
			"no-rank-errors": {
				{nil, bare(bench.Solve{RankErrs: []error{nil, errors.New("boom")}}), nil, "rank 1: boom"},
				{nil, withReport(func(r *bench.ChaosReport) { r.RankErrs = []error{nil, nil} }), nil, ""},
			},
			"registrations": {
				{map[string]any{"min": int64(2)}, &bench.ChaosReport{InnerRegistrations: 1}, nil, "registrations = 1"},
				{map[string]any{"min": int64(1), "max": int64(1)}, &bench.ChaosReport{InnerRegistrations: 3}, nil, "registrations = 3"},
				{map[string]any{"min": int64(1), "max": int64(1)}, healthy(), nil, ""},
			},
			"suspect-periods": {
				{int64(1), &bench.ChaosReport{}, nil, "suspect periods = 0"},
				{int64(1), withReport(func(r *bench.ChaosReport) { r.InnerStats = proxy.Stats{SuspectPeriods: 1} }), nil, ""},
			},
			"job-completed": {
				{nil, &bench.ChaosReport{JobErr: errors.New("lost")}, nil, "job error: lost"},
				{nil, &bench.ChaosReport{}, nil, "job never ran"},
				{nil, healthy(), nil, ""},
			},
			"job-off-host": {
				{"compas00", &bench.ChaosReport{JobResource: "compas00"}, nil, "job finished on compas00"},
				{"compas00", healthy(), nil, ""},
			},
			"min-requeues": {
				{int64(1), &bench.ChaosReport{}, nil, "requeues = 0, want >= 1"},
				{int64(1), withReport(func(r *bench.ChaosReport) { r.JobRequeues = 1 }), nil, ""},
			},
			"max-requeues": {
				{int64(0), &bench.ChaosReport{JobRequeues: 2}, nil, "requeues = 2, want <= 0"},
				{int64(0), healthy(), nil, ""},
			},
			"min-speculations": {
				{int64(1), &bench.ChaosReport{}, nil, "speculations = 0"},
				{int64(1), withReport(func(r *bench.ChaosReport) { r.JobSpeculations = 1 }), nil, ""},
			},
			"elapsed-ceiling": {
				{"1s", bare(solve(10, 10, 20, 20, 2*sec)), nil, "elapsed 2s > ceiling 1s"},
				{"1m", healthy(), nil, ""},
			},
			"hbm-all-up": {
				{nil, &bench.ChaosReport{HBM: map[string]hbm.Health{"x": hbm.Down}}, nil, "want Up"},
				{nil, healthy(), nil, ""},
			},
			"hbm-suspects": {
				{int64(1), &bench.ChaosReport{}, nil, "suspect transitions = 0"},
				{int64(1), withReport(func(r *bench.ChaosReport) { r.HBMSuspects = 1 }), nil, ""},
			},
			"hbm-no-downs": {
				{nil, &bench.ChaosReport{HBMDowns: 3}, nil, "down transitions = 3"},
				{nil, healthy(), nil, ""},
			},
			"extra-jobs-done": {
				{int64(5), &bench.ChaosReport{ExtraJobsDone: 4}, nil, "extra jobs done = 4, want >= 5"},
				{int64(0), healthy(), nil, ""},
			},
			"speculation-wins": {
				{nil, withReport(func(r *bench.ChaosReport) { r.JobDone = 5 * sec }), withReport(func(r *bench.ChaosReport) { r.JobDone = 4 * sec }),
					"speculation did not win: job done at 5s, baseline 4s"},
				{nil, healthy(), withReport(func(r *bench.ChaosReport) { r.JobErr = errors.New("lost") }), "baseline job error: lost"},
				{nil, healthy(), withReport(func(r *bench.ChaosReport) { r.JobDone, r.Best = 4*sec, 9 }), "optimum drifted: spec 10 base 9 want 10"},
				{nil, healthy(), withReport(func(r *bench.ChaosReport) { r.JobDone = 4 * sec }), ""},
			},
			"baseline-reregisters": {
				{nil, healthy(), healthy(), "baseline without a miss budget re-registered 1 times, want >= 2"},
				{nil, healthy(), withReport(func(r *bench.ChaosReport) { r.InnerRegistrations = 2 }), ""},
			},
		},
		KindTable2: {
			"rows": {
				{int64(3), rows(sec, 2*sec), nil, "rows = 2, want 3"},
				{int64(2), rows(sec, 2*sec), nil, ""},
			},
			"indirect-slower": {
				{nil, rows(2*sec, sec), nil, "RWCP-Sun <-> COMPaS: indirect latency 1s <= direct 2s"},
				{nil, rows(sec, 2*sec)[1:], nil, "RWCP-Sun <-> COMPaS has no direct counterpart"},
				{nil, rows(sec, 2*sec), nil, ""},
			},
		},
		KindTable4: {
			"systems": {
				{int64(6), wide(12*sec, 10*sec), nil, "systems = 2, want 6"},
				{int64(2), wide(12*sec, 10*sec), nil, ""},
			},
			"proxy-overhead-max": {
				{0.1, wide(12*sec, 10*sec), nil, "proxy overhead 0.2000 > ceiling 0.1000"},
				{0.25, wide(12*sec, 10*sec), nil, ""},
			},
			"exact-optimum": {
				{nil, solved(best - 1), nil, "COMPaS: best = " + itoa(best-1) + ", want " + itoa(best)},
				{nil, solved(best), nil, ""},
			},
			"speedup-positive": {
				{nil, &bench.KnapsackReport{Rows: []bench.Table4Row{row("COMPaS", bench.Solve{}, 0)}}, nil, "COMPaS: speedup 0.000 <= 0"},
				{nil, wide(12*sec, 10*sec), nil, ""},
			},
		},
		KindMonitor: {
			"min-windows": {
				{int64(3), monitored(bench.Solve{}), nil, "windows = 2, want >= 3"},
				{int64(2), monitored(bench.Solve{}), nil, ""},
			},
			"min-series": {
				{int64(3), monitored(bench.Solve{}), nil, "series = 2, want >= 3"},
				{int64(2), monitored(bench.Solve{}), nil, ""},
			},
			"exact-optimum": {
				{nil, monitored(bench.Solve{WantBest: best}), nil, "best = <no result>, want " + itoa(best)},
				{nil, monitored(solve(best-1, best, nodes, nodes, 0)), nil, "best = " + itoa(best-1) + ", want " + itoa(best)},
				{nil, monitored(solve(best, best, nodes, nodes, 0)), nil, ""},
			},
		},
		KindGridFTP: {
			"points": {
				{int64(4), sweep(400), nil, "points = 3, want 4"},
				{int64(3), sweep(400), nil, ""},
			},
			"parallel-streams-win": {
				{nil, sweep(50), nil, "at loss 0.020: 8 streams 50 B/s <= 1 stream 100 B/s"},
				{nil, sweep(400)[:2], nil, "sweep needs streams 1 and > 1 at loss 0.020 to compare"},
				{nil, sweep(400), nil, ""},
			},
		},
		KindGrid: {
			"exact-optimum": {
				{nil, grid(best-1, nodes, 0), nil, "best = " + itoa(best-1) + ", want " + itoa(best)},
				{nil, grid(best, nodes, 0), nil, ""},
			},
			"all-work-done": {
				{nil, grid(best, nodes-1, 0), nil, "traversed " + itoa(nodes-1) + " < " + itoa(nodes) + ": work was lost"},
				{nil, grid(best, nodes, 0), nil, ""},
			},
			"elapsed-ceiling": {
				{"1s", grid(best, nodes, 2*sec), nil, "elapsed 2s > ceiling 1s"},
				{"2s", grid(best, nodes, 2*sec), nil, ""},
			},
		},
		KindFleet: {
			"all-jobs-done": {
				{nil, fleetRun(fleet.Result{Jobs: 9}), nil, "completed 9 of 10 jobs"},
				{nil, fleetRun(fleet.Result{Jobs: 10}), nil, ""},
			},
			"p99-ceiling": {
				{"1s", fleetRun(fleet.Result{P99Lat: 2 * sec}), nil, "p99 latency 2s > ceiling 1s"},
				{"2s", fleetRun(fleet.Result{P99Lat: 2 * sec}), nil, ""},
			},
			"max-queued": {
				{int64(4), fleetRun(fleet.Result{QueuedPeak: 5}), nil, "gateway queue peaked at 5, ceiling 4"},
				{int64(5), fleetRun(fleet.Result{QueuedPeak: 5}), nil, ""},
			},
			"min-queued": {
				{int64(4), fleetRun(fleet.Result{QueuedPeak: 3}), nil, "gateway queue peaked at 3, want >= 4"},
				{int64(3), fleetRun(fleet.Result{QueuedPeak: 3}), nil, ""},
			},
			"min-events": {
				{int64(6), fleetRun(fleet.Result{Events: 5}), nil, "kernel stamped 5 events, want >= 6"},
				{int64(5), fleetRun(fleet.Result{Events: 5}), nil, ""},
			},
			"makespan-ceiling": {
				{"1s", fleetRun(fleet.Result{Makespan: 2 * sec}), nil, "makespan 2s > ceiling 1s"},
				{"2s", fleetRun(fleet.Result{Makespan: 2 * sec}), nil, ""},
			},
		},
	}

	// verdict compiles the named row or comparator through the table and
	// runs it on one case.
	verdict := func(t *testing.T, k *kind, name string, c judged, comparator bool) error {
		t.Helper()
		s := &Spec{Name: "t", Kind: k.name, Asserts: []AssertSpec{{Name: name, Arg: c.arg}}, Compare: name}
		if comparator {
			fn, err := s.comparator()
			if err != nil {
				t.Fatal(err)
			}
			return fn(c.v, c.base)
		}
		checks, err := buildAsserts(s)
		if err != nil {
			t.Fatal(err)
		}
		if want := name; name == "job-off-host" {
			if want = "job-off-" + c.arg.(string); checks[0].Name != want {
				t.Errorf("check named %q, want %q", checks[0].Name, want)
			}
		}
		return checks[0].Fn(c.v)
	}
	for i := range kinds {
		k := &kinds[i]
		var names []string
		var comparators []bool
		for _, a := range k.asserts {
			names, comparators = append(names, a.name), append(comparators, false)
		}
		for _, c := range k.compare {
			names, comparators = append(names, c.name), append(comparators, true)
		}
		// Each case is its own subtest under its row's name, so a row's second
		// and later cases run as name#01, name#02, ...
		t.Run(string(k.name), func(t *testing.T) {
			for j, name := range names {
				var violated, satisfied bool
				for _, c := range cases[k.name][name] {
					if c.violation == "" {
						satisfied = true
					} else {
						violated = true
					}
					t.Run(name, func(t *testing.T) {
						err := verdict(t, k, name, c, comparators[j])
						switch {
						case c.violation == "":
							if err != nil {
								t.Errorf("%s failed on a satisfying report: %v", name, err)
							}
						case err == nil:
							t.Errorf("%s passed on a violating report (want %q)", name, c.violation)
						case !strings.Contains(err.Error(), c.violation):
							t.Errorf("%s error %q does not contain %q", name, err, c.violation)
						}
					})
				}
				if !violated || !satisfied {
					t.Errorf("%s needs a violation case and a satisfied case (violation %v, satisfied %v)", name, violated, satisfied)
				}
			}
		})
		for name := range cases[k.name] {
			if !slices.Contains(names, name) {
				t.Errorf("case for %s %s, which is no row of its kind", k.name, name)
			}
		}
	}
}

func itoa(n int64) string { return strconv.FormatInt(n, 10) }
