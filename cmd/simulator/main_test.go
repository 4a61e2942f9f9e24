package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nxcluster/internal/scenario"
)

// fastScenario is a sub-second table2 run for end-to-end CLI tests.
const fastScenario = `
name: cli-rtt
desc: one-round RTT probe
kind: table2
workload:
  rounds: 1
  sizes: [4096]
  workers: 1
assert:
  - rows: 4
  - indirect-slower
`

// failingScenario declares an assertion the run cannot satisfy.
const failingScenario = `
name: cli-doomed
kind: table2
workload:
  rounds: 1
  sizes: [4096]
assert:
  - rows: 99
`

const invalidScenario = `
name: cli-bad
kind: chaos
workload:
  items: 8
  capacity: 2
  horizon: 30s
faults:
  - crash: {host: compas99, from: 1s}
`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUsageAndUnknownCommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage: simulator") {
		t.Errorf("no usage text on stderr: %q", errb.String())
	}
	errb.Reset()
	if code := run([]string{"frobnicate"}, &out, &errb); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"help"}, &out, &errb); code != 0 {
		t.Errorf("help: exit %d, want 0", code)
	}
	if !strings.Contains(out.String(), "validate <file>") {
		t.Errorf("help text missing commands: %q", out.String())
	}
}

func TestValidateCommand(t *testing.T) {
	good := writeTemp(t, "good.yaml", fastScenario)
	bad := writeTemp(t, "bad.yaml", invalidScenario)

	var out, errb bytes.Buffer
	if code := run([]string{"validate", good}, &out, &errb); code != 0 {
		t.Fatalf("validate good: exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "ok") || !strings.Contains(out.String(), "cli-rtt") {
		t.Errorf("validate output %q", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"validate", good, bad}, &out, &errb); code != 1 {
		t.Fatalf("validate with invalid file: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "INVALID") || !strings.Contains(errb.String(), `"compas99" is not a host`) {
		t.Errorf("invalid diagnostics missing: %q", errb.String())
	}
	if !strings.Contains(errb.String(), "1 of 2 files invalid") {
		t.Errorf("summary line missing: %q", errb.String())
	}

	errb.Reset()
	if code := run([]string{"validate"}, &out, &errb); code != 2 {
		t.Errorf("validate with no files: exit %d, want 2", code)
	}
}

func TestRunCommand(t *testing.T) {
	good := writeTemp(t, "good.yaml", fastScenario)
	jsonPath := filepath.Join(t.TempDir(), "suite.json")

	var out, errb bytes.Buffer
	if code := run([]string{"run", "-json", jsonPath, good}, &out, &errb); code != 0 {
		t.Fatalf("run: exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "cli-rtt") || !strings.Contains(out.String(), "PASS") {
		t.Errorf("run output %q", out.String())
	}
	// determinism + rows + indirect-slower
	if !strings.Contains(out.String(), "scenarios=1 invariants=3 failures=0") {
		t.Errorf("counts line wrong: %q", out.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("suite JSON not written: %v", err)
	}
	var suite scenario.SuiteResult
	if err := json.Unmarshal(data, &suite); err != nil {
		t.Fatalf("suite JSON malformed: %v", err)
	}
	if len(suite.Scenarios) != 1 || suite.Scenarios[0].Name != "cli-rtt" || !suite.Scenarios[0].Passed {
		t.Errorf("suite JSON content: %+v", suite)
	}
	if suite.Scenarios[0].TraceHash == "" {
		t.Error("suite JSON is missing the trace hash")
	}
}

func TestRunCommandFailure(t *testing.T) {
	doomed := writeTemp(t, "doomed.yaml", failingScenario)
	var out, errb bytes.Buffer
	if code := run([]string{"run", doomed}, &out, &errb); code != 1 {
		t.Fatalf("run doomed: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "FAIL") || !strings.Contains(out.String(), "rows = 4, want 99") {
		t.Errorf("failure detail missing: %q", out.String())
	}

	// A mixed suite counts both files and still fails as a whole:
	// (determinism + rows + indirect-slower) + (determinism + rows).
	out.Reset()
	if code := run([]string{"run", writeTemp(t, "good.yaml", fastScenario), doomed}, &out, &errb); code != 1 {
		t.Errorf("run good+doomed: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "scenarios=2 invariants=5 failures=1") {
		t.Errorf("mixed counts line wrong: %q", out.String())
	}

	// An invalid file is a hard error before anything runs.
	bad := writeTemp(t, "bad.yaml", invalidScenario)
	errb.Reset()
	if code := run([]string{"run", bad}, &out, &errb); code != 1 {
		t.Errorf("run invalid: exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "is not a host") {
		t.Errorf("run invalid diagnostics: %q", errb.String())
	}

	if code := run([]string{"run"}, &out, &errb); code != 2 {
		t.Errorf("run with no files: exit %d, want 2", code)
	}
}

// TestDuplicateNamesRefused: results are keyed by name, so two files that
// declare the same one are a usage error naming both, before anything runs.
func TestDuplicateNamesRefused(t *testing.T) {
	a := writeTemp(t, "a.yaml", fastScenario)
	b := writeTemp(t, "b.yaml", fastScenario)
	for _, cmd := range []string{"validate", "run"} {
		var out, errb bytes.Buffer
		if code := run([]string{cmd, a, b}, &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2", cmd, code)
		}
		want := "simulator " + cmd + ": " + a + " and " + b + ` both declare name "cli-rtt"` + "\n"
		if errb.String() != want || out.Len() != 0 {
			t.Errorf("%s:\n stderr %q\n   want %q\n stdout %q, want none", cmd, errb.String(), want, out.String())
		}
	}
}

func TestListCommand(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.yaml"), []byte(fastScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.yaml"), []byte("kind: ???\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"list", dir}, &out, &errb); code != 0 {
		t.Fatalf("list: exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "cli-rtt") || !strings.Contains(out.String(), "one-round RTT probe") {
		t.Errorf("list output %q", out.String())
	}
	if !strings.Contains(out.String(), "unparseable") {
		t.Errorf("list should flag the unparseable file: %q", out.String())
	}

	if code := run([]string{"list", t.TempDir()}, &out, &errb); code != 1 {
		t.Errorf("list empty dir: exit %d, want 1", code)
	}
	if code := run([]string{"list", "a", "b"}, &out, &errb); code != 2 {
		t.Errorf("list two dirs: exit %d, want 2", code)
	}
}

// TestListDefaultDir runs list against the real shipped library.
func TestListDefaultDir(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"list", filepath.Join("..", "..", "scenarios")}, &out, &errb); code != 0 {
		t.Fatalf("list scenarios/: exit %d, stderr %q", code, errb.String())
	}
	for _, want := range []string{"partition-then-heal", "table4-sweep", "gridftp-congestion"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("shipped library listing missing %s:\n%s", want, out.String())
		}
	}
}
