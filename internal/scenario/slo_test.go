package scenario

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/obs/causal"
	"nxcluster/internal/obs/timeseries"
	"nxcluster/internal/sim"
)

// minimal valid monitor scenario used as the slo mutation base below.
const monitorOK = `
name: m
kind: monitor
workload:
  items: 10
  capacity: 2
  interval: 1s
`

// TestSLODecodeErrors is the invalid-slo wall: every malformed objective
// class must fail Parse with an actionable message.
func TestSLODecodeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"not a mapping", monitorOK + "slo: 3\n", "must be a mapping"},
		{"no objectives", monitorOK + "slo: {}\n", "declares no objectives"},
		{"unknown slo key", monitorOK + "slo:\n  latenci:\n    - {leg: mpi/rank, percentile: 99, max: 1s}\n", `unknown key "latenci"`},
		{"latency not a list", monitorOK + "slo:\n  latency: {leg: mpi/rank}\n", "slo.latency must be a list"},
		{"latency unknown key", monitorOK + "slo:\n  latency:\n    - {leg: mpi/rank, percentile: 99, max: 1s, mni_count: 2}\n", `unknown key "mni_count"`},
		{"leg without slash", monitorOK + "slo:\n  latency:\n    - {leg: mpirank, percentile: 99, max: 1s}\n", "leg must be a span label"},
		{"percentile zero", monitorOK + "slo:\n  latency:\n    - {leg: mpi/rank, percentile: 0, max: 1s}\n", "outside (0, 100]"},
		{"percentile over 100", monitorOK + "slo:\n  latency:\n    - {leg: mpi/rank, percentile: 150, max: 1s}\n", "outside (0, 100]"},
		{"latency missing max", monitorOK + "slo:\n  latency:\n    - {leg: mpi/rank, percentile: 99}\n", `missing required key "max"`},
		{"throughput missing series", monitorOK + "slo:\n  throughput:\n    - {min_total: 3}\n", `missing required key "series"`},
		{"throughput no floor", monitorOK + "slo:\n  throughput:\n    - {series: knap.steals}\n", "needs a floor"},
		{"budget negative", monitorOK + "slo:\n  error_budget:\n    - {series: x, budget: -1}\n", "budget must be >= 0"},
		{"window without max_burn", monitorOK + "slo:\n  error_budget:\n    - {series: x, budget: 0, window: 5}\n", `"window" and "max_burn" come together`},
		{"max_burn without window", monitorOK + "slo:\n  error_budget:\n    - {series: x, budget: 0, max_burn: 5}\n", `"window" and "max_burn" come together`},
		{"window zero", monitorOK + "slo:\n  error_budget:\n    - {series: x, budget: 0, window: 0, max_burn: 2}\n", "window must be >= 1"},
		{"max_burn negative", monitorOK + "slo:\n  error_budget:\n    - {series: x, budget: 0, window: 2, max_burn: -2}\n", "max_burn must be >= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSLOShapeErrors covers the semantic layer: which kinds may declare
// SLOs, and the interval ownership rule.
func TestSLOShapeErrors(t *testing.T) {
	slo := "slo:\n  latency:\n    - {leg: rmf/job, percentile: 100, max: 10s}\n"
	cases := []struct {
		name, src, wantErr string
	}{
		{"slo on table4", "name: t\nkind: table4\nworkload:\n  items: 10\n  capacity: 2\n" + slo,
			"slo blocks are not supported for kind table4"},
		{"slo on grid", "name: t\nkind: grid\nworkload:\n  items: 10\n  capacity: 2\n" + slo,
			"slo blocks are not supported for kind grid"},
		{"monitor with slo interval", monitorOK + "slo:\n  interval: 2s\n  latency:\n    - {leg: mpi/rank, percentile: 100, max: 10s}\n",
			"monitor scenarios window on workload.interval"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Parse([]byte(tc.src))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			err = Validate(s)
			if err == nil {
				t.Fatalf("Validate passed, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSLOBaselinePruned pins that a chaos baseline never inherits the
// primary's slo block: objectives judge the service, the baseline is the
// foil (often a deliberately degraded run that would violate them).
func TestSLOBaselinePruned(t *testing.T) {
	s, err := Parse([]byte(chaosOK +
		"slo:\n  interval: 1s\n  latency:\n    - {leg: rmf/job, percentile: 100, max: 10s}\nbaseline:\n  desc: foil\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.SLO == nil || s.SLO.Objectives() != 1 {
		t.Fatalf("primary SLO = %+v, want 1 objective", s.SLO)
	}
	if s.Baseline.SLO != nil {
		t.Fatalf("baseline inherited the slo block: %+v", s.Baseline.SLO)
	}
}

func TestMatchSeries(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"knap.steals", "knap.steals", true},
		{"knap.steals", "knap.steals2", false},
		{"rmf.*.jobs_done", "rmf.compas00.jobs_done", true},
		{"rmf.*.jobs_done", "rmf.compas00.jobs_failed", false},
		{"rmf.*.jobs_done", "rmf.alloc.requests", false},
		{"rmf.*", "rmf.compas00.jobs_done", true},
		{"*", "anything", true},
		{"*.drops", "link.a>b.drops", true},
		{"link.*>*.bytes", "link.a>b.bytes", true},
		{"link.*>*.bytes", "link.ab.bytes", false},
		{"a*b*c", "abc", true},
		{"a*b*c", "axbxc", true},
		{"a*b*c", "acb", false},
	}
	for _, tc := range cases {
		if got := matchSeries(tc.pattern, tc.name); got != tc.want {
			t.Errorf("matchSeries(%q, %q) = %v, want %v", tc.pattern, tc.name, got, tc.want)
		}
	}
}

// testStore drives a real kernel-scheduled sampler over the given per-window
// deltas so Evaluate sees a store built exactly the way runs build theirs.
func testStore(t *testing.T, deltas map[string][]int64) *timeseries.Store {
	t.Helper()
	windows := 0
	for _, d := range deltas {
		if len(d) > windows {
			windows = len(d)
		}
	}
	k := sim.New()
	defer k.Shutdown()
	smp := timeseries.NewSampler(k, time.Second, nil)
	smp.KeepAlive = true
	names := make([]string, 0, len(deltas))
	for n := range deltas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := deltas[n]
		var cum int64
		i := 0
		smp.Probe(n, timeseries.KindRate, func() int64 {
			if i < len(d) {
				cum += d[i]
				i++
			}
			return cum
		})
	}
	smp.Start()
	k.RunUntil(time.Duration(windows) * time.Second)
	st := smp.Store()
	if st.Windows() != windows {
		t.Fatalf("store has %d windows, want %d", st.Windows(), windows)
	}
	return st
}

// testObserver folds the legs of spec's latency objectives over completed
// rmf/job spans of the given durations, plus one never-ended mpi/rank span
// (open spans have no duration and must not count).
func testObserver(spec *SLOSpec, durations ...time.Duration) *obs.Observer {
	o := obs.NewHashOnly(spec.legs()...)
	at := time.Duration(0)
	for _, d := range durations {
		tc := o.BeginTrace(at, "rmf", "job", "rmf0")
		o.EndSpan(at+d, tc, "rmf", "job", "rmf0")
		at += time.Second
	}
	o.BeginTrace(at, "mpi", "rank", "rank0")
	return o
}

func TestSLOEvaluate(t *testing.T) {
	durations := []time.Duration{10 * time.Millisecond, 30 * time.Millisecond}
	store := testStore(t, map[string][]int64{
		"rmf.a.jobs_done":   {1, 2, 0, 3, 0},
		"rmf.a.jobs_failed": {0, 0, 5, 0, 0},
		"rmf.b.jobs_failed": {0, 1, 0, 0, 0},
	})
	cases := []struct {
		name    string
		spec    SLOSpec
		wantErr string // "" = every objective must pass
	}{
		{"latency pass", SLOSpec{Latency: []LatencySLO{{Leg: "rmf/job", Percentile: 100, Max: 30 * time.Millisecond, MinCount: 2}}}, ""},
		{"latency p50 pass", SLOSpec{Latency: []LatencySLO{{Leg: "rmf/job", Percentile: 50, Max: 10 * time.Millisecond}}}, ""},
		{"latency violated", SLOSpec{Latency: []LatencySLO{{Leg: "rmf/job", Percentile: 100, Max: 29 * time.Millisecond}}}, "p100 = 30ms > max 29ms"},
		{"latency vacuous", SLOSpec{Latency: []LatencySLO{{Leg: "gram/submit", Percentile: 100, Max: time.Second}}}, "objective is vacuous"},
		{"latency min_count", SLOSpec{Latency: []LatencySLO{{Leg: "rmf/job", Percentile: 100, Max: time.Second, MinCount: 3}}}, "2 completed spans, want >= 3"},
		{"open span ignored", SLOSpec{Latency: []LatencySLO{{Leg: "mpi/rank", Percentile: 100, Max: time.Hour}}}, "objective is vacuous"},
		{"throughput pass", SLOSpec{Throughput: []ThroughputSLO{{Series: "rmf.*.jobs_done", MinTotal: 6}}}, ""},
		{"throughput floor violated", SLOSpec{Throughput: []ThroughputSLO{{Series: "rmf.*.jobs_done", MinTotal: 7}}}, "total 6 < floor 7"},
		{"throughput rate pass", SLOSpec{Throughput: []ThroughputSLO{{Series: "rmf.*.jobs_done", MinTotal: 1, MinRate: 1.2}}}, ""},
		{"throughput rate violated", SLOSpec{Throughput: []ThroughputSLO{{Series: "rmf.*.jobs_done", MinTotal: 1, MinRate: 2}}}, "rate 1.2/s < floor 2/s"},
		{"throughput no match", SLOSpec{Throughput: []ThroughputSLO{{Series: "gridftp.*", MinTotal: 1}}}, "no series matches"},
		{"budget pass", SLOSpec{Budgets: []ErrorBudgetSLO{{Series: "rmf.*.jobs_failed", Budget: 6}}}, ""},
		{"budget violated", SLOSpec{Budgets: []ErrorBudgetSLO{{Series: "rmf.*.jobs_failed", Budget: 5}}}, "total 6 > budget 5"},
		{"burn pass", SLOSpec{Budgets: []ErrorBudgetSLO{{Series: "rmf.*.jobs_failed", Budget: 10, Window: 2, MaxBurn: 6}}}, ""},
		{"burn violated", SLOSpec{Budgets: []ErrorBudgetSLO{{Series: "rmf.*.jobs_failed", Budget: 10, Window: 2, MaxBurn: 4}}}, "burn 6 > 4"},
		{"budget no match", SLOSpec{Budgets: []ErrorBudgetSLO{{Series: "nope", Budget: 0}}}, "no series matches"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fails := tc.spec.Evaluate(testObserver(&tc.spec, durations...), store)
			if tc.wantErr == "" {
				if len(fails) != 0 {
					t.Fatalf("Evaluate = %q, want no failures", fails)
				}
				return
			}
			if len(fails) != 1 {
				t.Fatalf("Evaluate = %q, want exactly one failure containing %q", fails, tc.wantErr)
			}
			if !strings.Contains(fails[0], tc.wantErr) {
				t.Fatalf("failure %q does not contain %q", fails[0], tc.wantErr)
			}
		})
	}

	t.Run("nil store fails loudly", func(t *testing.T) {
		spec := SLOSpec{Throughput: []ThroughputSLO{{Series: "x", MinTotal: 1}}}
		fails := spec.Evaluate(testObserver(&spec, durations...), nil)
		if len(fails) != 1 || !strings.Contains(fails[0], "no time-series store") {
			t.Fatalf("Evaluate with nil store = %q", fails)
		}
	})
}

// sloMatchesRecording checks that each latency objective of s read the same
// numbers from the primary's folded legs as it would from a recording run of
// s walked through the causal forest, the way objectives were judged before
// their legs folded: the span count and the percentile, not only the
// verdict. The recording run must hash as the primary did. It runs s once
// more, recording.
func sloMatchesRecording(t *testing.T, s *Spec, primary *outcome) {
	t.Helper()
	rec := obs.New()
	if _, err := s.runOnce(true, rec); err != nil {
		t.Fatal(err)
	}
	if h := primary.observer.Hash(); rec.Hash() != h {
		t.Errorf("the recording run hashed %016x, the primary %016x", rec.Hash(), h)
	}
	forest := causal.Build(rec.Events())
	for _, l := range s.SLO.Latency {
		got, want := primary.observer.Durations(l.Leg), spanDurations(forest, l.Leg)
		gp, wp := causal.Percentile(got, l.Percentile), causal.Percentile(want, l.Percentile)
		if len(got) != len(want) || gp != wp {
			t.Errorf("slo latency %s p%v: folded %d spans, p = %v; the causal walk finds %d, p = %v",
				l.Leg, l.Percentile, len(got), gp, len(want), wp)
		}
	}
}

// spanDurations is the walk the latency objectives read before their legs
// were folded: the durations of every complete span in the forest whose
// label ("cat/name") is leg, in trace order.
func spanDurations(f *causal.Forest, leg string) []time.Duration {
	var out []time.Duration
	var walk func(s *causal.Span)
	walk = func(s *causal.Span) {
		if s.Complete && s.Label() == leg {
			out = append(out, s.End-s.Start)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, t := range f.Traces {
		for _, r := range t.Roots {
			walk(r)
		}
	}
	return out
}

// TestSLOViolatedScenario runs the intentionally broken testdata scenario
// end to end: a violated objective must fail the scenario (and with it
// `simulator run` and the scenario gate), counting each objective as an
// invariant.
func TestSLOViolatedScenario(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "slo-violated.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("scenario with violated SLO passed")
	}
	// 1 determinism + exact-optimum + 3 objectives.
	if res.Invariants != 5 {
		t.Errorf("invariants = %d, want 5", res.Invariants)
	}
	if len(res.Failures) != 2 {
		t.Fatalf("failures = %q, want exactly the two violated objectives", res.Failures)
	}
	if !strings.Contains(res.Failures[0], "slo latency mpi/rank") {
		t.Errorf("first failure %q is not the latency violation", res.Failures[0])
	}
	if !strings.Contains(res.Failures[1], "no series matches") {
		t.Errorf("second failure %q is not the missing-series violation", res.Failures[1])
	}
}
