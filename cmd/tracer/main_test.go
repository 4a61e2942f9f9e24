package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/obs"
)

const ms = time.Millisecond

// writeSample records a small two-job trace and writes its JSONL to a file.
func writeSample(t *testing.T) string {
	t.Helper()
	o := obs.New()
	job := o.BeginTrace(0, "rmf", "job", "client")
	alloc := o.BeginChild(10*ms, job, "rmf", "allocate", "client", obs.Int("count", 2))
	o.EndSpan(30*ms, alloc, "rmf", "allocate", "client")
	// A child on a different track draws a cross-track flow arrow in the
	// Chrome export.
	exec := o.BeginChild(30*ms, job, "rmf", "exec", "compas1")
	o.EndSpan(60*ms, exec, "rmf", "exec", "compas1")
	o.EmitCtx(40*ms, job, "rmf", "requeue", "client", obs.Str("to", "compas1"))
	o.EndSpan(100*ms, job, "rmf", "job", "client")
	rank := o.BeginTrace(0, "mpi", "rank", "compas1")
	o.EndSpan(50*ms, rank, "mpi", "rank", "compas1")
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAnalyze(t *testing.T) {
	path := writeSample(t)
	var out, errb bytes.Buffer
	if code := run([]string{"analyze", "-legs", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{"2 traced jobs", "rmf/job", "mpi/rank", "= total", "per-leg critical-path time:"} {
		if !strings.Contains(s, want) {
			t.Errorf("analyze output missing %q:\n%s", want, s)
		}
	}
}

func TestQuery(t *testing.T) {
	path := writeSample(t)
	var out, errb bytes.Buffer
	if code := run([]string{"query", "-trace", "1", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "trace 1  root rmf/job") || !strings.Contains(s, "rmf/requeue") {
		t.Errorf("query output unexpected:\n%s", s)
	}
	out.Reset()
	if code := run([]string{"query", "-trace", "99", path}, &out, &errb); code != 1 {
		t.Errorf("missing trace should exit 1, got %d", code)
	}
}

func TestChrome(t *testing.T) {
	path := writeSample(t)
	var out, errb bytes.Buffer
	if code := run([]string{"chrome", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	s := out.String()
	for _, want := range []string{`"ph":"B"`, `"ph":"E"`, `"cat":"flow"`, `"trace":1`} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome output missing %q", want)
		}
	}
}

func TestRoundTripPreservesBytes(t *testing.T) {
	path := writeSample(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var re bytes.Buffer
	if err := obs.FromEvents(events).WriteJSONL(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, re.Bytes()) {
		t.Error("JSONL round trip is not byte-identical")
	}
}

func TestUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args should exit 2, got %d", code)
	}
	if code := run([]string{"help"}, &out, &errb); code != 0 {
		t.Errorf("help should exit 0, got %d", code)
	}
	if code := run([]string{"bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown command should exit 2, got %d", code)
	}
	for _, cmd := range []string{"analyze", "query", "chrome"} {
		if code := run([]string{cmd, "-h"}, &out, &errb); code != 0 {
			t.Errorf("%s -h should exit 0, got %d", cmd, code)
		}
	}
}
