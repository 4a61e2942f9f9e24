package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/hbm"
	"nxcluster/internal/obs"
)

// tinyConfig is a small fault-free run for exercising RunScenario's
// bookkeeping without the full suite's 90s horizons.
func tinyConfig() Config {
	return Config{
		Items:    8,
		Capacity: 2,
		System:   cluster.SystemCompas,
		Horizon:  30 * time.Second,
	}
}

// TestRunScenarioFailurePath: a scenario with an impossible invariant must
// come back Passed=false with the violation recorded — not as a harness
// error.
func TestRunScenarioFailurePath(t *testing.T) {
	res, err := RunScenario(Scenario{
		Name:       "impossible-ceiling",
		Config:     tinyConfig(),
		Invariants: []Invariant{ExactOptimum(), ElapsedCeiling(time.Nanosecond)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("scenario with a 1ns elapsed ceiling passed")
	}
	// determinism + 2 declared invariants
	if res.Invariants != 3 {
		t.Errorf("invariants = %d, want 3", res.Invariants)
	}
	if len(res.Failures) != 1 || !strings.Contains(res.Failures[0], "elapsed-ceiling") {
		t.Errorf("failures = %v, want one elapsed-ceiling violation", res.Failures)
	}
	if res.Report == nil || res.TraceHash == "" {
		t.Error("failing scenario must still carry its report and trace hash")
	}
}

// TestRunScenarioBadConfig: a config the runner rejects is a harness error,
// not a failed result.
func TestRunScenarioBadConfig(t *testing.T) {
	_, err := RunScenario(Scenario{Name: "no-items", Config: Config{Horizon: time.Second}})
	if err == nil {
		t.Fatal("RunScenario accepted a zero-item config")
	}
	if !strings.Contains(err.Error(), "no-items") {
		t.Errorf("error %q does not name the scenario", err)
	}
	// Both runs of the double run fail; the primary's error comes first.
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "chaos no-items: ") ||
		!strings.HasPrefix(lines[1], "chaos no-items (replay): ") {
		t.Errorf("error lines = %q, want the primary's then the replay's", lines)
	}
	// A baseline the runner rejects is named as such, and alone.
	_, err = RunScenario(Scenario{Name: "bad-foil", Config: tinyConfig(), Baseline: &Config{Horizon: time.Second}})
	if err == nil || !strings.HasPrefix(err.Error(), "chaos bad-foil (baseline): ") || strings.Contains(err.Error(), "\n") {
		t.Errorf("baseline error = %v", err)
	}
}

// TestTraceDivergenceNamesFirstEvent: a failed determinism check says where
// the two traces part, not just that their hashes differ.
func TestTraceDivergenceNamesFirstEvent(t *testing.T) {
	build := func(bytes int64) *obs.Observer {
		o := obs.New()
		o.Emit(time.Millisecond, "net", "dial", "rwcp-sun")
		o.Emit(2*time.Millisecond, "net", "deliver", "etl-gw", obs.Int("bytes", bytes))
		return o
	}
	a, b := build(64), build(65)
	got := traceDivergence(a, b, a.Hash(), b.Hash())
	want := fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs; first divergence at event 1: ", a.Hash(), b.Hash()) +
		`{"at":2000000,"ph":"i","cat":"net","name":"deliver","track":"etl-gw","bytes":64} | ` +
		`{"at":2000000,"ph":"i","cat":"net","name":"deliver","track":"etl-gw","bytes":65}`
	if got != want {
		t.Errorf("traceDivergence:\n got %s\nwant %s", got, want)
	}
}

// TestRunSuiteLogsAndCounts drives RunSuite's logging path and the
// SuiteResult accessors on a mixed pass/fail suite.
func TestRunSuiteLogsAndCounts(t *testing.T) {
	var lines []string
	logf := func(format string, args ...interface{}) {
		lines = append(lines, strings.Join(strings.Fields(fmt.Sprintf(format, args...)), " "))
	}
	suite := []Scenario{
		{Name: "ok", Config: tinyConfig(), Invariants: []Invariant{ExactOptimum()}},
		{Name: "doomed", Config: tinyConfig(), Invariants: []Invariant{ElapsedCeiling(time.Nanosecond)}},
	}
	res, err := RunSuite(suite, logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Error("suite with a doomed scenario passed")
	}
	sc, inv, fails := res.Counts()
	if sc != 2 || inv != 4 || fails != 1 {
		t.Errorf("counts = %d/%d/%d, want 2 scenarios, 4 invariants, 1 failure", sc, inv, fails)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "ok PASS") || !strings.Contains(joined, "doomed FAIL") {
		t.Errorf("log lines missing PASS/FAIL markers:\n%s", joined)
	}
	if !strings.Contains(joined, "FAIL elapsed-ceiling") {
		t.Errorf("log lines missing the failure detail:\n%s", joined)
	}
}

// TestInvariantLibrary exercises every invariant's violation branch on
// synthetic reports — the error text is part of the suite's UX.
func TestInvariantLibrary(t *testing.T) {
	cases := []struct {
		inv     Invariant
		rep     Report
		wantErr string
	}{
		{ExactOptimum(), Report{Completed: false}, "did not complete"},
		{ExactOptimum(), Report{Completed: true, Best: 9, WantBest: 10}, "best = 9, want 10"},
		{AllWorkDone(), Report{TotalTraversed: 5, WantNodes: 10}, "work was lost"},
		{NoOrphans(), Report{Orphans: 2}, "2 orphaned slaves"},
		{NoRankErrors(), Report{RankErrs: []error{nil, errors.New("boom")}}, "rank 1: boom"},
		{Registrations(2, 0), Report{InnerRegistrations: 1}, "registrations = 1"},
		{Registrations(1, 1), Report{InnerRegistrations: 3}, "registrations = 3"},
		{SuspectPeriods(1), Report{}, "suspect periods = 0"},
		{JobCompleted(), Report{JobErr: errors.New("lost")}, "job error: lost"},
		{JobCompleted(), Report{}, "job never ran"},
		{JobOffHost("compas00"), Report{JobResource: "compas00"}, "job finished on compas00"},
		{MinRequeues(1), Report{}, "requeues = 0, want >= 1"},
		{MaxRequeues(0), Report{JobRequeues: 2}, "requeues = 2, want <= 0"},
		{MinSpeculations(1), Report{}, "speculations = 0"},
		{ElapsedCeiling(time.Second), Report{Elapsed: 2 * time.Second}, "elapsed 2s > ceiling 1s"},
		{HBMAllUp(), Report{HBM: map[string]hbm.Health{"x": hbm.Down}}, "want Up"},
		{HBMSuspectsSeen(1), Report{}, "suspect transitions = 0"},
		{HBMNoDowns(), Report{HBMDowns: 3}, "down transitions = 3"},
		{ExtraJobsDone(5), Report{ExtraJobsDone: 4}, "extra jobs done = 4, want >= 5"},
	}
	for _, tc := range cases {
		t.Run(tc.inv.Name, func(t *testing.T) {
			err := tc.inv.Check(&tc.rep)
			if err == nil {
				t.Fatalf("%s passed on a violating report", tc.inv.Name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s error %q does not contain %q", tc.inv.Name, err, tc.wantErr)
			}
		})
	}
	// And the satisfied branches return nil.
	healthy := Report{
		Completed: true, Best: 10, WantBest: 10, TotalTraversed: 20, WantNodes: 20,
		InnerRegistrations: 1, JobResource: "compas01", JobDone: time.Second,
		HBM: map[string]hbm.Health{"x": hbm.Up},
	}
	for _, inv := range []Invariant{
		ExactOptimum(), AllWorkDone(), NoOrphans(), NoRankErrors(),
		Registrations(1, 1), JobCompleted(), JobOffHost("compas00"),
		MaxRequeues(0), ElapsedCeiling(time.Minute), HBMAllUp(), HBMNoDowns(),
		ExtraJobsDone(0),
	} {
		if err := inv.Check(&healthy); err != nil {
			t.Errorf("%s failed on a healthy report: %v", inv.Name, err)
		}
	}
}
