package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRefusesBadFlags: a negative count, an unknown -run and an output
// flag the chosen -run does not write are usage errors, refused before any
// experiment runs — no output, no file.
func TestRunRefusesBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "table3", "-capacity", "-1"}, "-capacity -1: must not be negative"},
		{[]string{"-run", "table3", "-items", "-5"}, "-items -5"},
		{[]string{"-run", "table3", "-rounds", "-3"}, "-rounds -3"},
		{[]string{"-run", "table3", "-workers", "-2"}, "-workers -2"},
		{[]string{"-run", "fleet", "-fleet-jobs", "-1"}, "-fleet-jobs -1"},
		{[]string{"-run", "decomp", "-trace-chrome", out}, "-trace-chrome is written by -run ktrace, not -run decomp"},
		{[]string{"-run", "table4", "-monitor-html", out}, "-monitor-html is written by -run monitor"},
		{[]string{"-trace", out}, "-trace is written by -run decomp or ktrace, not -run all"},
		{[]string{"-run", "bogus"}, `unknown -run "bogus"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, no output, %q", tc.args, code, stdout.String(), stderr.String(), tc.want)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("%q wrote %s", tc.args, out)
		}
	}
}

// TestRunWritesTheOutputItIsAskedFor: the output flag of the chosen -run
// writes its file, and the section prints.
func TestRunWritesTheOutputItIsAskedFor(t *testing.T) {
	out := filepath.Join(t.TempDir(), "decomp.jsonl")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "decomp", "-trace", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file: %v", err)
	}
	if stdout.Len() == 0 {
		t.Fatal("no decomposition printed")
	}
}
