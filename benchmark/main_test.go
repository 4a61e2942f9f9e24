package main

import (
	"math"
	"path/filepath"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, tc := range []struct{ p, want float64 }{
		{50, 30}, {20, 10}, {21, 20}, {99, 50}, {100, 50}, {0.1, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// The reported tail is the highest level with at least ten samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {10_000, 99.9}, {100_000, 99.99},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		level, value := tailPercentile(xs)
		if level != tc.want {
			t.Errorf("n=%d: tail level %v, want %v", tc.n, level, tc.want)
		}
		if beyond := float64(tc.n) - value; tc.want > 50 && beyond < 10 {
			t.Errorf("n=%d: only %v samples beyond p%v", tc.n, beyond, level)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which the
// driver computes its spreads with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5}, // two samples extrapolate, as Python does
		{[]float64{10, 20, 30}, 10, 30},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "phase", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "client", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "client", Start: 30, End: 70},  // overlaps span 1
		{ID: 3, Parent: 0, Name: "client", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "call", Start: 20, End: 30},
	}
	// Children cover [10,70] and [90,100] of the parent: 70 of its 100.
	want := []int64{30, 30, 40, 30, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
	total, self, count := spanSums(spans)
	if total["client"] != 110e-9 || self["client"] != 100e-9 || count["client"] != 3 {
		t.Errorf("client sums: total %v self %v count %v", total["client"], self["client"], count["client"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", noSpan)
	tr.end(id)
	tr.nextRun()
	if id != noSpan || tr.snapshot() != nil {
		t.Errorf("nil tracer returned id %d and spans %v", id, tr.snapshot())
	}
}

func TestNameValidation(t *testing.T) {
	for _, ok := range []string{"setup_s", "rmf.allocate_us.r1024", "table4-cap5", "9lives", "a"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "wall s", "µs", "a/b", string(long)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}

func testSpec(t *testing.T) (*benchSpec, string) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return spec, root
}

// BENCHMARK.json and the code must name the same workloads, in one order.
func TestSpecMatchesWorkloads(t *testing.T) {
	spec, _ := testSpec(t)
	defs := workloads()
	if len(defs) != len(spec.Workloads) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(defs), len(spec.Workloads))
	}
	for i, d := range defs {
		if spec.Workloads[i].Name != d.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in code", i, spec.Workloads[i].Name, d.name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		hasSetup = hasSetup || m.Name == "setup_s"
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("bound of %s is %v, want within (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("BENCHMARK.json has no setup_s")
	}
}

func sampleResult(spec *benchSpec) *resultFile {
	f := &resultFile{Schema: resultSchema, Mode: modeEndToEnd, Commit: "abc", GoVersion: "go", NProc: 2, GOMAXPROCS: 2,
		Seed: 1, Repetitions: 2, RunSeconds: 10}
	w := workloadRuns{Name: spec.Workloads[0].Name, Note: loopbackNote}
	for i := 0; i < 2; i++ {
		r := runRecord{Seed: 1, Correct: true, Attempted: 6, Values: map[string]float64{}, Detail: &runDetail{Passes: 2}}
		for j, m := range spec.EndToEnd {
			r.Values[m.Name] = float64(10*(j+1) + i)
		}
		w.Runs = append(w.Runs, r)
	}
	f.Workloads = []workloadRuns{w}
	return f
}

func TestResultFileRoundTrip(t *testing.T) {
	spec, _ := testSpec(t)
	path := filepath.Join(t.TempDir(), "set.json")
	want := sampleResult(spec)
	if err := writeResultFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(path, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != resultSchema || got.Commit != "abc" || got.Workloads[0].Note != loopbackNote || len(got.Workloads[0].Runs) != 2 {
		t.Errorf("round trip lost the header: %+v", got)
	}
	m := spec.EndToEnd[1].Name
	if vs := got.Workloads[0].values(m); len(vs) != 2 || vs[0] != 20 || vs[1] != 21 {
		t.Errorf("values(%s) = %v, want [20 21]", m, vs)
	}
}

// A result file naming a metric or workload BENCHMARK.json does not declare
// must be refused, so a renamed metric fails loudly.
func TestResultFileValidation(t *testing.T) {
	spec, _ := testSpec(t)
	for name, mutate := range map[string]func(f *resultFile){
		"schema":           func(f *resultFile) { f.Schema = 99 },
		"mode":             func(f *resultFile) { f.Mode = "both" },
		"unknown workload": func(f *resultFile) { f.Workloads[0].Name = "table4-cap9" },
		"renamed metric": func(f *resultFile) {
			v := f.Workloads[0].Runs[0].Values
			v["wall_seconds"] = v["wall_s"]
			delete(v, "wall_s")
		},
		"missing metric": func(f *resultFile) { delete(f.Workloads[0].Runs[1].Values, "setup_s") },
		"bad name":       func(f *resultFile) { f.Workloads[0].Runs[0].Values["wall s"] = 1 },
	} {
		f := sampleResult(spec)
		mutate(f)
		if err := f.validate(spec); err == nil {
			t.Errorf("%s: validate accepted the file", name)
		}
	}
	if err := sampleResult(spec).validate(spec); err != nil {
		t.Errorf("validate refused a good file: %v", err)
	}
}

func TestFillDeclared(t *testing.T) {
	declared := []metricSpec{{Name: "a", Unit: "s"}, {Name: "b", Unit: "ms"}}
	res := &runResult{Metrics: map[string]measured{}}
	if err := fillDeclared(res, map[string]float64{"a": 1}, declared, true); err != nil || res.Metrics["b"].Value != 0 || res.Metrics["b"].Unit != "ms" {
		t.Errorf("a bypassed per-layer metric should read 0: %v %+v", err, res.Metrics)
	}
	if err := fillDeclared(res, map[string]float64{"a": 1}, declared, false); err == nil {
		t.Error("a missing end-to-end metric was accepted")
	}
	if err := fillDeclared(res, map[string]float64{"a": 1, "b": 2, "c": 3}, declared, false); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	if err := fillDeclared(res, map[string]float64{"a": math.NaN(), "b": 2}, declared, false); err == nil {
		t.Error("a NaN was accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.10}
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, verdictWithin},
		{"5% slower", lower, steady, []float64{105, 106, 104, 105, 107}, verdictWithin},
		{"20% slower", lower, steady, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{"20% faster", lower, steady, []float64{80, 81, 79, 80, 82}, verdictWithin},
		{"rate fell 20%", higher, steady, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{"rate rose 20%", higher, steady, []float64{120, 121, 119, 120, 122}, verdictWithin},
		{"noisy set", lower, steady, []float64{80, 120, 100, 90, 110}, verdictUnresolved},
		{"noisy and worse", lower, steady, []float64{100, 160, 130, 115, 145}, verdictWorse},
		{"noisy setup", setup, steady, []float64{60, 140, 100, 80, 120}, verdictWithin},
	} {
		if got := compareCell("w", tc.m, tc.a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestQuickSmoke drives every workload at about a fiftieth of its scale,
// untraced and traced, and checks that every declared metric comes out:
// each end-to-end metric finite and non-zero on every workload, and each
// per-layer metric measured by at least one workload.
func TestQuickSmoke(t *testing.T) {
	spec, root := testSpec(t)
	seen := map[string]bool{}
	for _, d := range workloads() {
		cfg := runConfig{workload: d.name, seed: 3, seconds: 0.01, quick: true, root: root}
		res, det, err := runOne(cfg, spec)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", d.name, res.Correct, res.Attempted, res.Failed, det.Problems)
		}
		if len(res.Metrics) != len(spec.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", d.name, len(res.Metrics), len(spec.EndToEnd))
		}
		for _, m := range spec.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", d.name, m.Name, got, ok)
			}
		}

		cfg.trace = true
		res, det, err = runOne(cfg, spec)
		if err != nil {
			t.Fatalf("%s traced: %v", d.name, err)
		}
		if !res.Correct {
			t.Errorf("%s traced: incorrect: %v", d.name, det.Problems)
		}
		if len(res.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", d.name, len(res.Metrics), len(spec.PerLayer))
		}
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s traced: %s is %v", d.name, name, m.Value)
			}
		}
		for _, name := range det.measured {
			seen[name] = true
		}
	}
	for _, m := range spec.PerLayer {
		if !seen[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measured it", m.Name)
		}
	}
}
