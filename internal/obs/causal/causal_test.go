package causal

import (
	"strings"
	"testing"
	"time"

	"nxcluster/internal/obs"
)

const ms = time.Millisecond

// buildSample records one traced job with nested legs plus an instant mark:
//
//	job  [0,100ms]
//	├── allocate [10,30ms]
//	│   └── dial [15,25ms]
//	└── submit   [40,80ms]
func buildSample(t *testing.T) *Forest {
	t.Helper()
	o := obs.New()
	job := o.BeginTrace(0, "rmf", "job", "client")
	alloc := o.BeginChild(10*ms, job, "rmf", "allocate", "client")
	dial := o.BeginChild(15*ms, alloc, "net", "dial", "client")
	o.EndSpan(25*ms, dial, "net", "dial", "client")
	o.EndSpan(30*ms, alloc, "rmf", "allocate", "client")
	sub := o.BeginChild(40*ms, job, "rmf", "submit-proc", "client")
	o.EmitCtx(50*ms, sub, "rmf", "requeue", "client")
	o.EndSpan(80*ms, sub, "rmf", "submit-proc", "client")
	o.EndSpan(100*ms, job, "rmf", "job", "client")
	return Build(o.Events())
}

func TestBuildReconstructsTree(t *testing.T) {
	f := buildSample(t)
	if len(f.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(f.Traces))
	}
	tr := f.Traces[0]
	if tr.Spans != 4 || tr.Incomplete != 0 {
		t.Errorf("spans=%d incomplete=%d, want 4/0", tr.Spans, tr.Incomplete)
	}
	if len(tr.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tr.Roots))
	}
	root := tr.Roots[0]
	if root.Label() != "rmf/job" || len(root.Children) != 2 {
		t.Fatalf("root %s with %d children, want rmf/job with 2", root.Label(), len(root.Children))
	}
	if root.Children[0].Label() != "rmf/allocate" || len(root.Children[0].Children) != 1 {
		t.Errorf("first child = %s (%d children), want rmf/allocate with 1",
			root.Children[0].Label(), len(root.Children[0].Children))
	}
	if len(tr.Marks) != 1 || tr.Marks[0].Name != "requeue" {
		t.Errorf("marks = %+v, want one requeue", tr.Marks)
	}
}

func TestDecomposeTelescopes(t *testing.T) {
	f := buildSample(t)
	root := f.Traces[0].Roots[0]
	d, err := Decompose(root)
	if err != nil {
		t.Fatal(err)
	}
	if d.Total != 100*ms {
		t.Fatalf("total = %v, want 100ms", d.Total)
	}
	var sum time.Duration
	want := map[string]time.Duration{
		"rmf/job":         40 * ms, // [0,10)+[30,40)+[80,100]
		"rmf/allocate":    10 * ms, // [10,15)+[25,30)
		"net/dial":        10 * ms, // [15,25)
		"rmf/submit-proc": 40 * ms, // [40,80)
	}
	for _, r := range d.Rows {
		sum += r.Self
		if w, ok := want[r.Span.Label()]; !ok || r.Self != w {
			t.Errorf("leg %s self = %v, want %v", r.Span.Label(), r.Self, w)
		}
	}
	if sum != d.Total {
		t.Errorf("legs sum to %v, want %v", sum, d.Total)
	}
	// Rows appear in first-activation order: the root activates first.
	if d.Rows[0].Span != root {
		t.Errorf("first row = %s, want the root", d.Rows[0].Span.Label())
	}
}

func TestDecomposeSkipsIncompleteDescendants(t *testing.T) {
	o := obs.New()
	job := o.BeginTrace(0, "rmf", "job", "client")
	o.BeginChild(10*ms, job, "rmf", "exec", "host") // never ended (killed)
	o.EndSpan(100*ms, job, "rmf", "job", "client")
	f := Build(o.Events())
	tr := f.Traces[0]
	if tr.Incomplete != 1 {
		t.Fatalf("incomplete = %d, want 1", tr.Incomplete)
	}
	d, err := Decompose(tr.Roots[0])
	if err != nil {
		t.Fatal(err)
	}
	// The incomplete child's time falls to the root.
	if len(d.Rows) != 1 || d.Rows[0].Self != 100*ms {
		t.Errorf("rows = %d (self %v), want the root owning all 100ms", len(d.Rows), d.Rows[0].Self)
	}
}

// TestBuildCountsIncompletePerTrace: with many interleaved traces, each
// leaving a different number of spans open, every trace's Incomplete is what
// the loop over every span per trace counted (kept here as the reference).
func TestBuildCountsIncompletePerTrace(t *testing.T) {
	const traces = 300
	o := obs.New()
	roots := make([]obs.TraceContext, traces)
	for i := range roots {
		roots[i] = o.BeginTrace(time.Duration(i)*ms, "rmf", "job", "client")
	}
	for i, root := range roots {
		for j := 0; j < i%5; j++ {
			child := o.BeginChild(time.Duration(i)*ms, root, "rmf", "exec", "host")
			if j%2 == 0 {
				o.EndSpan(time.Duration(i+1)*ms, child, "rmf", "exec", "host")
			}
		}
	}
	for i, root := range roots {
		if i%3 != 0 {
			o.EndSpan(time.Duration(i+2)*ms, root, "rmf", "job", "client")
		}
	}
	f := Build(o.Events())
	if len(f.Traces) != traces {
		t.Fatalf("traces = %d, want %d", len(f.Traces), traces)
	}
	var spans []*Span // every span Build made (span IDs are unique)
	var walk func(s *Span)
	walk = func(s *Span) {
		spans = append(spans, s)
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, tr := range f.Traces {
		for _, r := range tr.Roots {
			walk(r)
		}
	}
	open := 0
	for _, tr := range f.Traces {
		want := 0
		for _, s := range spans {
			if s.Trace == tr.ID && !s.Complete {
				want++
			}
		}
		if tr.Incomplete != want {
			t.Errorf("trace %d: incomplete = %d, the per-trace loop counts %d", tr.ID, tr.Incomplete, want)
		}
		open += want
	}
	if open == 0 || open == len(spans) {
		t.Fatalf("%d of %d spans incomplete: the case must mix both", open, len(spans))
	}
}

func TestDecomposeIncompleteRootErrors(t *testing.T) {
	o := obs.New()
	o.BeginTrace(0, "mpi", "rank", "host")
	f := Build(o.Events())
	if _, err := Decompose(f.Traces[0].Roots[0]); err == nil {
		t.Error("decomposing an incomplete root should error")
	}
}

func TestDecomposeClipsToRootWindow(t *testing.T) {
	// A child that outlives the root (the parent released before the child
	// closed) must only be charged inside the root's window.
	o := obs.New()
	job := o.BeginTrace(0, "rmf", "job", "client")
	child := o.BeginChild(50*ms, job, "rmf", "exec", "host")
	o.EndSpan(100*ms, job, "rmf", "job", "client")
	o.EndSpan(150*ms, child, "rmf", "exec", "host")
	f := Build(o.Events())
	d, err := Decompose(f.Traces[0].Roots[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Rows {
		if r.Span.Label() == "rmf/exec" && r.Self != 50*ms {
			t.Errorf("clipped child self = %v, want 50ms", r.Self)
		}
	}
}

func TestOrphanChildBecomesRoot(t *testing.T) {
	// A Begin referencing a parent span that never appeared (e.g. the
	// parent's Begin fell outside a truncated capture) roots its own tree.
	events := []obs.Event{
		{At: 0, Ph: obs.PhaseBegin, Cat: "rmf", Name: "exec", Track: "h", ID: 7, Trace: 3, Parent: 99},
		{At: 10 * ms, Ph: obs.PhaseEnd, Cat: "rmf", Name: "exec", Track: "h", ID: 7},
	}
	f := Build(events)
	if len(f.Traces) != 1 || len(f.Traces[0].Roots) != 1 {
		t.Fatalf("want one trace with one root, got %+v", f.Traces)
	}
	if f.Trace(3) == nil || f.Trace(4) != nil {
		t.Error("Trace lookup by ID broken")
	}
}

func TestSummarizeOrdersJobsAndLegs(t *testing.T) {
	o := obs.New()
	fast := o.BeginTrace(0, "mpi", "rank", "a")
	o.EndSpan(10*ms, fast, "mpi", "rank", "a")
	slow := o.BeginTrace(0, "mpi", "rank", "b")
	o.EndSpan(90*ms, slow, "mpi", "rank", "b")
	f := Build(o.Events())
	s := Summarize(f)
	if len(s.Jobs) != 2 || s.Skipped != 0 {
		t.Fatalf("jobs=%d skipped=%d, want 2/0", len(s.Jobs), s.Skipped)
	}
	if s.Jobs[0].Total != 90*ms {
		t.Errorf("slowest first: got %v", s.Jobs[0].Total)
	}
	if len(s.Legs) != 1 || s.Legs[0].Leg != "mpi/rank" || s.Legs[0].Total != 100*ms || s.Legs[0].Count != 2 {
		t.Errorf("legs = %+v", s.Legs)
	}
	out := FormatSummary(s, 1)
	if !strings.Contains(out, "2 traced jobs") || !strings.Contains(out, "slowest 1") {
		t.Errorf("FormatSummary output unexpected:\n%s", out)
	}
}

// TestSpanDurationsAndPercentile: the nearest-rank percentile of a leg's span
// durations. (The durations themselves are folded by obs.NewHashOnly, and
// FuzzFoldMatchesSpanDurations checks them against this package's forest.)
func TestSpanDurationsAndPercentile(t *testing.T) {
	set := []time.Duration{10 * ms, 20 * ms, 30 * ms, 40 * ms}
	cases := []struct {
		p    float64
		want time.Duration
	}{{25, 10 * ms}, {50, 20 * ms}, {75, 30 * ms}, {99, 40 * ms}, {100, 40 * ms}}
	for _, c := range cases {
		if got := Percentile(set, c.p); got != c.want {
			t.Errorf("p%.0f = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestFormatDecompositionTelescopesInPrint(t *testing.T) {
	f := buildSample(t)
	d, err := Decompose(f.Traces[0].Roots[0])
	if err != nil {
		t.Fatal(err)
	}
	out := FormatDecomposition(d)
	if !strings.Contains(out, "total 100.000000ms") || !strings.Contains(out, "= total") {
		t.Errorf("unexpected format:\n%s", out)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := FormatSummary(Summarize(buildSample(t)), 0)
	b := FormatSummary(Summarize(buildSample(t)), 0)
	if a != b {
		t.Error("identical streams produced different summaries")
	}
}
