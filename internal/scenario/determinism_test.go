package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
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

// TestShippedScenariosRun is the determinism wall: every shipped scenario
// runs (Run itself executes each workload twice and fails on any trace-hash
// or fingerprint divergence), passes all its declared assertions, and
// reproduces its row of the committed SCENARIOS_suite.json — the same
// comparison `make scenarios` gates on, here without a second run.
func TestShippedScenariosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario library (~5s of virtual-time runs) in -short mode")
	}
	const baseline = "SCENARIOS_suite.json"
	data, err := os.ReadFile(filepath.Join("..", "..", baseline))
	if err != nil {
		t.Fatal(err)
	}
	var suite SuiteResult
	if err := json.Unmarshal(data, &suite); err != nil {
		t.Fatalf("%s: %v", baseline, err)
	}
	rows := map[string]Result{}
	for _, r := range suite.Scenarios {
		rows[r.Name] = r
	}
	for _, file := range shippedFiles(t) {
		s := loadShipped(t, file)
		want, ok := rows[s.Name]
		delete(rows, s.Name)
		t.Run(file, func(t *testing.T) {
			if !ok {
				t.Fatalf("%s has no %q row (regenerate it: simulator run -json %s scenarios/*.yaml)", baseline, s.Name, baseline)
			}
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Passed {
				t.Fatalf("failures: %v", res.Failures)
			}
			if res.TraceHash != want.TraceHash || res.Fingerprint != want.Fingerprint || res.Invariants != want.Invariants {
				t.Errorf("drifted from %s:\n got  trace_hash=%s invariants=%d fingerprint=%q\n want trace_hash=%s invariants=%d fingerprint=%q",
					baseline, res.TraceHash, res.Invariants, res.Fingerprint, want.TraceHash, want.Invariants, want.Fingerprint)
			}
		})
	}
	for name := range rows {
		t.Errorf("%s row %q has no scenario file", baseline, name)
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
