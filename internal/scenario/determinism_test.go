package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func shippedFiles(t *testing.T) []string {
	t.Helper()
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read scenarios dir: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && (strings.HasSuffix(e.Name(), ".yaml") || strings.HasSuffix(e.Name(), ".yml") || strings.HasSuffix(e.Name(), ".json")) {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) < 10 {
		t.Fatalf("scenario library shrank: %d files, want >= 10", len(files))
	}
	return files
}

// TestShippedScenariosValidate: every shipped scenario file must parse and
// validate — host names, link names, assertion vocabulary, shape constraints
// — under a name no other file uses: results are keyed by name, so a second
// file with the same name would leave the first ungated.
func TestShippedScenariosValidate(t *testing.T) {
	owner := map[string]string{}
	for _, file := range shippedFiles(t) {
		t.Run(file, func(t *testing.T) {
			s := loadShipped(t, file)
			if err := Validate(s); err != nil {
				t.Fatal(err)
			}
			if prev, ok := owner[s.Name]; ok {
				t.Fatalf("name %q is already declared by %s", s.Name, prev)
			}
			owner[s.Name] = file
		})
	}
}

// suiteBaseline is the committed row per shipped scenario; regenerate it with
// `simulator run -json SCENARIOS_suite.json scenarios/*.yaml`.
const suiteBaseline = "SCENARIOS_suite.json"

// suiteDrift compares a scenario library with its committed rows and returns
// one line per difference, sorted, each naming its scenario: a row no file
// declares, a file with no row, and for each result (nil: the scenario did
// not run) a failed invariant or a trace_hash, fingerprint or invariant count
// that differs from its row's.
func suiteDrift(rows []Result, got map[string]*Result) []string {
	var out []string
	seen := map[string]bool{}
	for _, w := range rows {
		seen[w.Name] = true
		res, ok := got[w.Name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: row in %s has no scenario file", w.Name, suiteBaseline))
		case res == nil:
		case !res.Passed:
			out = append(out, fmt.Sprintf("%s: failures: %v", w.Name, res.Failures))
		case res.TraceHash != w.TraceHash || res.Fingerprint != w.Fingerprint || res.Invariants != w.Invariants:
			out = append(out, fmt.Sprintf("%s: drifted from %s:\n got  trace_hash=%s invariants=%d fingerprint=%q\n want trace_hash=%s invariants=%d fingerprint=%q",
				w.Name, suiteBaseline, res.TraceHash, res.Invariants, res.Fingerprint, w.TraceHash, w.Invariants, w.Fingerprint))
		}
	}
	for name := range got {
		if !seen[name] {
			out = append(out, fmt.Sprintf("%s: no row in %s", name, suiteBaseline))
		}
	}
	sort.Strings(out)
	return out
}

// TestSuiteDrift: each way a library can part from its rows is reported, by
// name, and an identical library is not.
func TestSuiteDrift(t *testing.T) {
	rows := []Result{
		{Name: "s", Passed: true, Invariants: 3, TraceHash: "aaaa", Fingerprint: "elapsed=1ms\n"},
		{Name: "t", Passed: true, Invariants: 4, TraceHash: "cccc", Fingerprint: "elapsed=2ms\n"},
	}
	for _, tc := range []struct {
		name   string
		change func(got map[string]*Result)
		want   string // "": no drift
	}{
		{"identical", func(map[string]*Result) {}, ""},
		{"not run", func(got map[string]*Result) { got["s"] = nil }, ""},
		{"failed invariant", func(got map[string]*Result) { got["s"].Passed, got["s"].Failures = false, []string{"exact-optimum"} },
			"s: failures: [exact-optimum]"},
		{"row without a file", func(got map[string]*Result) { delete(got, "t") }, "t: row in SCENARIOS_suite.json has no scenario file"},
		{"file without a row", func(got map[string]*Result) { got["u"] = nil }, "u: no row in SCENARIOS_suite.json"},
		{"trace_hash", func(got map[string]*Result) { got["s"].TraceHash = "bbbb" }, "got  trace_hash=bbbb"},
		{"fingerprint", func(got map[string]*Result) { got["t"].Fingerprint = "elapsed=9ms\n" }, `fingerprint="elapsed=9ms\n"`},
		{"invariant count", func(got map[string]*Result) { got["s"].Invariants = 2 }, "invariants=2"},
	} {
		got := map[string]*Result{}
		for _, r := range rows {
			got[r.Name] = &r
		}
		tc.change(got)
		d := suiteDrift(rows, got)
		if tc.want == "" && d != nil || tc.want != "" && (len(d) != 1 || !strings.Contains(d[0], tc.want)) {
			t.Errorf("%s: drift %q, want one line containing %q", tc.name, d, tc.want)
		}
	}
}

// TestShippedScenariosRun is the determinism wall and the gate `make
// scenarios` runs: every shipped scenario runs (Run itself executes each
// workload twice and fails on any trace-hash or fingerprint divergence),
// passes all its declared assertions, and reproduces its row of the committed
// SCENARIOS_suite.json, which has a row for every file and no other. The
// files share nothing, so they run side by side; the rows are compared once
// every file has run.
func TestShippedScenariosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario library (~5s of virtual-time runs) in -short mode")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", suiteBaseline))
	if err != nil {
		t.Fatal(err)
	}
	var suite SuiteResult
	if err := json.Unmarshal(data, &suite); err != nil {
		t.Fatalf("%s: %v", suiteBaseline, err)
	}
	var mu sync.Mutex // guards got
	got := map[string]*Result{}
	// Cleanup runs after the parallel subtests have finished.
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range suiteDrift(suite.Scenarios, got) {
			t.Error(d)
		}
	})
	for _, file := range shippedFiles(t) {
		s := loadShipped(t, file)
		mu.Lock()
		got[s.Name] = nil
		mu.Unlock()
		t.Run(file, func(t *testing.T) {
			t.Parallel()
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			got[s.Name] = res
			mu.Unlock()
		})
	}
}

// TestWorkerInvariance: the bench sweeps parallelize measurement points
// across workers, but every point runs in its own testbed — the worker
// count must never show up in the results.
func TestWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated sweeps in -short mode")
	}
	t.Run("table4", func(t *testing.T) {
		s := loadShipped(t, "table4-sweep.yaml")
		var fps []string
		for _, workers := range []int{1, 4} {
			s.Table4.Workers = workers
			res, err := Run(s)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			fps = append(fps, res.Fingerprint)
		}
		if fps[0] != fps[1] {
			t.Errorf("worker count leaked into results:\n w=1 %q\n w=4 %q", fps[0], fps[1])
		}
	})
	t.Run("gridftp", func(t *testing.T) {
		s := loadShipped(t, "gridftp-congestion.yaml")
		var fps []string
		for _, workers := range []int{1, 4} {
			s.GridFTP.Workers = workers
			res, err := Run(s)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			fps = append(fps, res.Fingerprint)
		}
		if fps[0] != fps[1] {
			t.Errorf("worker count leaked into results:\n w=1 %q\n w=4 %q", fps[0], fps[1])
		}
	})
}

// TestGOMAXPROCSInvariance: scheduler parallelism must not perturb a run.
// For every kind Run's primary and replay (and a chaos scenario's baseline)
// execute side by side at GOMAXPROCS=4 and one after another at
// GOMAXPROCS=1, and the whole Result must be the same either way, with every
// goroutine gone afterwards.
func TestGOMAXPROCSInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated scenario runs in -short mode")
	}
	for _, file := range []string{
		"grid-multi-site.yaml",
		"chaos-slow-node-straggler.yaml", // three runs: it has a baseline:
		"table2-rtt.yaml",
	} {
		t.Run(file, func(t *testing.T) {
			s := loadShipped(t, file)
			if s.Kind == KindChaos && s.Baseline == nil {
				t.Fatal("the chaos case must be a three-run scenario: this one has no baseline")
			}
			start := runtime.NumGoroutine()
			var results []*Result
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				res, err := Run(s)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				if !res.Passed {
					t.Fatalf("GOMAXPROCS=%d: failures: %v", procs, res.Failures)
				}
				results = append(results, res)
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Errorf("GOMAXPROCS leaked into the run:\n p=1 %+v\n p=4 %+v", results[0], results[1])
			}
			// A worker goroutine may still be between wg.Done and its exit.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > start {
				t.Errorf("%d goroutines after the runs, %d before", n, start)
			}
		})
	}
}
