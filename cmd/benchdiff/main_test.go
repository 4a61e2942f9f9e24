package main

import (
	"strings"
	"testing"

	"nxcluster/internal/scenario"
)

func rec(name string, ns float64, allocs int64) Record {
	return Record{Name: name, Iterations: 100, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestDiff(t *testing.T) {
	oldRecs := []Record{
		rec("BenchmarkKernelStep", 100, 0),
		rec("BenchmarkPingPong", 1000, 5),
		rec("BenchmarkRemoved", 50, 1),
	}
	newRecs := []Record{
		rec("BenchmarkKernelStep", 105, 0), // +5%: within threshold
		rec("BenchmarkPingPong", 1200, 5),  // +20%: regression
		rec("BenchmarkAdded", 10, 0),
	}
	rows := Diff(oldRecs, newRecs, 0.10)
	want := []struct {
		name      string
		regressed bool
		onlyOld   bool
		onlyNew   bool
	}{
		{"BenchmarkAdded", false, false, true},
		{"BenchmarkKernelStep", false, false, false},
		{"BenchmarkPingPong", true, false, false},
		{"BenchmarkRemoved", false, true, false},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d: %+v", len(rows), len(want), rows)
	}
	for i, w := range want {
		r := rows[i]
		if r.Name != w.name || r.Regressed != w.regressed || r.OnlyOld != w.onlyOld || r.OnlyNew != w.onlyNew {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestDiffAllocGrowthAlwaysRegresses(t *testing.T) {
	// Even a tiny speedup cannot excuse a new allocation on a 0-alloc path.
	rows := Diff(
		[]Record{rec("BenchmarkKernelStep", 100, 0)},
		[]Record{rec("BenchmarkKernelStep", 90, 1)},
		0.10)
	if len(rows) != 1 || !rows[0].Regressed {
		t.Fatalf("alloc growth not flagged: %+v", rows)
	}
}

func TestDiffAllocJitterWithinThreshold(t *testing.T) {
	// On a nonzero alloc baseline, growth within the threshold is jitter
	// (worker fan-out benchmarks have scheduling-dependent alloc counts), but
	// growth past it still regresses.
	rows := Diff(
		[]Record{rec("BenchmarkJitter", 100, 127323), rec("BenchmarkGrowth", 100, 1000)},
		[]Record{rec("BenchmarkJitter", 100, 127330), rec("BenchmarkGrowth", 100, 1200)},
		0.10)
	for _, r := range rows {
		switch r.Name {
		case "BenchmarkJitter":
			if r.Regressed {
				t.Errorf("+0.005%% alloc jitter flagged: %+v", r)
			}
		case "BenchmarkGrowth":
			if !r.Regressed {
				t.Errorf("+20%% alloc growth not flagged: %+v", r)
			}
		}
	}
}

func TestDiffZeroOldNs(t *testing.T) {
	// A zero old ns/op (malformed or placeholder record) must not divide by
	// zero or spuriously regress.
	rows := Diff(
		[]Record{rec("BenchmarkX", 0, 0)},
		[]Record{rec("BenchmarkX", 50, 0)},
		0.10)
	if rows[0].NsDelta != 0 || rows[0].Regressed {
		t.Fatalf("zero-baseline row mishandled: %+v", rows[0])
	}
}

func TestFormat(t *testing.T) {
	rows := Diff(
		[]Record{rec("BenchmarkA", 100, 0), rec("BenchmarkB", 100, 2), rec("BenchmarkGone", 10, 0)},
		[]Record{rec("BenchmarkA", 150, 0), rec("BenchmarkB", 50, 2), rec("BenchmarkNew", 20, 1)},
		0.10)
	out, regressed := Format(rows, 0.10)
	if !regressed {
		t.Fatal("regression not reported")
	}
	for _, want := range []string{
		"REGRESSION", // BenchmarkA +50%
		"improved",   // BenchmarkB -50%
		"(removed)",  // BenchmarkGone
		"(new)",      // BenchmarkNew
		"+50.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatCleanRun(t *testing.T) {
	out, regressed := Format(Diff(
		[]Record{rec("BenchmarkA", 100, 0)},
		[]Record{rec("BenchmarkA", 101, 0)},
		0.10), 0.10)
	if regressed {
		t.Fatalf("clean run flagged as regression:\n%s", out)
	}
	if !strings.Contains(out, "+1.0%") {
		t.Errorf("delta missing from output:\n%s", out)
	}
}

func suiteOf(scens ...scenario.Result) *scenario.SuiteResult {
	return &scenario.SuiteResult{Scenarios: scens}
}

func TestSuiteSectionClean(t *testing.T) {
	s := suiteOf(
		scenario.Result{Name: "partition", Passed: true, Invariants: 5},
		scenario.Result{Name: "flap", Passed: true, Invariants: 4},
	)
	out, regressed := SuiteSection(s, s)
	if regressed {
		t.Fatalf("identical suites flagged:\n%s", out)
	}
	for _, want := range []string{"2 scenarios", "9 invariants", "0 failures", "baseline: 2 scenarios"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSuiteSectionFailuresGate(t *testing.T) {
	cur := suiteOf(scenario.Result{
		Name: "partition", Passed: false, Invariants: 5,
		Failures: []string{"exact-optimum: best = 9, want 10"},
	})
	// Even with no baseline, a failed invariant gates.
	out, regressed := SuiteSection(nil, cur)
	if !regressed {
		t.Fatalf("failed invariant not flagged:\n%s", out)
	}
	if !strings.Contains(out, "FAIL partition: exact-optimum") {
		t.Errorf("failure detail missing:\n%s", out)
	}
}

func TestSuiteSectionCoverageShrinkGates(t *testing.T) {
	old := suiteOf(
		scenario.Result{Name: "partition", Passed: true, Invariants: 5},
		scenario.Result{Name: "flap", Passed: true, Invariants: 4},
	)
	// Same scenario count but a baseline scenario replaced by a new one,
	// and fewer total invariants: both must gate.
	cur := suiteOf(
		scenario.Result{Name: "partition", Passed: true, Invariants: 4},
		scenario.Result{Name: "straggler", Passed: true, Invariants: 4},
	)
	out, regressed := SuiteSection(old, cur)
	if !regressed {
		t.Fatalf("coverage shrink not flagged:\n%s", out)
	}
	for _, want := range []string{`scenario "flap" dropped`, "invariant count shrank 9 -> 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// New scenarios on top of the baseline are growth, not regression.
	grown := suiteOf(append(old.Scenarios, scenario.Result{Name: "extra", Passed: true, Invariants: 3})...)
	if out, regressed := SuiteSection(old, grown); regressed {
		t.Fatalf("suite growth flagged as regression:\n%s", out)
	}
}

func TestSuiteSectionLabel(t *testing.T) {
	// The summary line names the suite and its counts.
	cur := suiteOf(scenario.Result{Name: "table4-sweep", Passed: true, Invariants: 6})
	out, regressed := SuiteSection(cur, cur)
	if regressed {
		t.Fatalf("identical suites flagged:\n%s", out)
	}
	if !strings.Contains(out, "scenario suite: 1 scenarios, 6 invariants, 0 failures") {
		t.Errorf("labeled summary missing:\n%s", out)
	}
	shrunk := suiteOf()
	if out, regressed := SuiteSection(cur, shrunk); !regressed {
		t.Fatalf("scenario-count shrink not flagged:\n%s", out)
	} else if !strings.Contains(out, "scenario count shrank 1 -> 0") {
		t.Errorf("shrink detail missing:\n%s", out)
	}
}

// TestSuiteSectionHashDriftGates pins the gate that reads what it claims:
// a trace_hash or fingerprint that differs from the baseline's — or that the
// baseline has and the new run stopped writing — is a regression naming
// old -> new; a field only the new run carries is not compared.
func TestSuiteSectionHashDriftGates(t *testing.T) {
	base := scenario.Result{Name: "s", Passed: true, Invariants: 3, TraceHash: "aaaa", Fingerprint: "elapsed=1ms\n"}
	with := func(hash, fp string) scenario.Result {
		sc := base
		sc.TraceHash, sc.Fingerprint = hash, fp
		return sc
	}
	for _, tc := range []struct {
		name     string
		old, cur scenario.Result
		want     []string // nil: no regression
	}{
		{name: "identical", old: base, cur: base},
		{name: "trace hash drift", old: base, cur: with("bbbb", base.Fingerprint),
			want: []string{`REGRESSION: s trace_hash changed: "aaaa" -> "bbbb"`}},
		{name: "fingerprint drift", old: base, cur: with(base.TraceHash, "elapsed=2ms\n"),
			want: []string{`REGRESSION: s fingerprint changed: "elapsed=1ms\n" -> "elapsed=2ms\n"`}},
		{name: "both drift", old: base, cur: with("bbbb", "elapsed=2ms\n"),
			want: []string{"s trace_hash changed", "s fingerprint changed"}},
		{name: "baseline without fingerprint", old: with("aaaa", ""), cur: base},
		{name: "new run without hashes", old: base, cur: with("", ""),
			want: []string{`REGRESSION: s trace_hash changed: "aaaa" -> ""`, `REGRESSION: s fingerprint changed: "elapsed=1ms\n" -> ""`}},
		{name: "new run without fingerprint", old: base, cur: with(base.TraceHash, ""),
			want: []string{`REGRESSION: s fingerprint changed: "elapsed=1ms\n" -> ""`}},
		{name: "baseline without hashes", old: with("", ""), cur: base},
	} {
		out, regressed := SuiteSection(suiteOf(tc.old), suiteOf(tc.cur))
		if regressed != (tc.want != nil) {
			t.Errorf("%s: regressed = %v:\n%s", tc.name, regressed, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(out, w) {
				t.Errorf("%s: output missing %q:\n%s", tc.name, w, out)
			}
		}
	}
}
