package obs_test

import (
	"slices"
	"testing"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/obs/causal"
)

// The fuzzed spans' labels. Their joins collide on purpose: "a/b/c" is both
// "a"+"/"+"b/c" and "a/b"+"/"+"c", and the empty strings make "/" and "a/".
// No category and name join to "b/c", so that leg folds nothing.
var (
	foldCats  = []string{"rmf", "a", "a/b", ""}
	foldNames = []string{"job", "b", "c", "b/c", ""}
	foldLegs  = []string{"rmf/job", "a/b", "a/b/c", "/", "a/", "b/c"}
)

// FuzzFoldMatchesSpanDurations: the durations a hash-only observer folds for
// a leg are, in some order, the ones the causal walk finds labelled leg in
// the recorded trace of the same run — untraced spans skipped, the first End
// of a span winning, an End nobody began ignored, a span that never ends
// dropped — and folding leaves the hash the recording's.
func FuzzFoldMatchesSpanDurations(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{
		1, 0x00, // BeginTrace rmf/job
		2, 0x11, // BeginChild a/b under it
		10, 0x22, // BeginChild a/b/c (category a/b) under the a/b span
		3, 0x31, // BeginSpan a/b/c (name b/c), joining the trace
		11, 0x43, // BeginSpan "/" with no parent: a trace of its own
		0, 0x00, // an untraced Begin of rmf/job
		4, 0x00, // End the rmf/job root
		13, 0x01, // EndSpan another open span
		6, 0x00, // End the root again
		7, 0x00, // an End of the next span's ID, before it begins
		1, 0x00, // BeginTrace rmf/job: that span, never ended
		5, 0x02, 12, 0x03, 4, 0x04, // End three more: the untraced span stays open too
	})
	f.Fuzz(func(t *testing.T, prog []byte) {
		rec, fold := obs.New(), obs.NewHashOnly(foldLegs...)
		playSpans(rec, prog)
		playSpans(fold, prog)
		forest := causal.Build(rec.Events())
		for _, leg := range foldLegs {
			got, want := sorted(fold.Durations(leg)), sorted(spanDurations(forest, leg))
			if !slices.Equal(got, want) {
				t.Fatalf("leg %q: folded %v, the causal walk finds %v", leg, got, want)
			}
		}
		if fold.Hash() != rec.Hash() {
			t.Fatalf("folding hash %016x, recording %016x", fold.Hash(), rec.Hash())
		}
	})
}

// playSpans records prog on o, two bytes an op. The first byte advances the
// clock by as many microseconds and picks the call (mod 8: Begin, BeginTrace,
// BeginChild, BeginSpan, End, EndSpan, a second End of a closed span, an End
// of a span not yet begun) and, above that, which open or closed span the
// call concerns; the second byte's low and high nibbles pick the category
// and name.
func playSpans(o *obs.Observer, prog []byte) {
	var at time.Duration
	var open, closed []obs.TraceContext
	begun := 0
	for ; len(prog) >= 2; prog = prog[2:] {
		op, label := prog[0], prog[1]
		at += time.Duration(op) * time.Microsecond
		cat, name := foldCats[int(label&0x0f)%len(foldCats)], foldNames[int(label>>4)%len(foldNames)]
		pick := func(s []obs.TraceContext) int { return int(op/8) % len(s) }
		var parent obs.TraceContext
		if len(open) > 0 {
			parent = open[pick(open)]
		}
		switch op % 8 {
		case 0:
			open = append(open, obs.TraceContext{Span: o.Begin(at, cat, name, "h")})
		case 1:
			open = append(open, o.BeginTrace(at, cat, name, "h"))
		case 2:
			open = append(open, o.BeginChild(at, parent, cat, name, "h"))
		case 3:
			if op/8%2 == 1 { // no parent: BeginSpan roots a trace
				parent = obs.TraceContext{}
			}
			open = append(open, o.BeginSpan(at, parent, cat, name, "h"))
		case 4, 5:
			if len(open) == 0 {
				continue
			}
			k := pick(open)
			tc := open[k]
			open = slices.Delete(open, k, k+1)
			closed = append(closed, tc)
			if op%8 == 4 {
				o.End(at, tc.Span, cat, name, "h")
			} else {
				o.EndSpan(at, tc, cat, name, "h")
			}
		case 6:
			if len(closed) > 0 {
				o.End(at, closed[pick(closed)].Span, cat, name, "h")
			}
		default:
			// Span IDs count up from 1, so this one is begun later, if at all.
			o.End(at, obs.SpanID(begun+1+int(op/8)%4), cat, name, "h")
		}
		if op%8 < 4 {
			begun++
		}
	}
}

// spanDurations is the walk the latency SLOs read before their legs were
// folded: the durations of every complete span in the forest whose label
// ("cat/name") is leg, in trace order.
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

func sorted(d []time.Duration) []time.Duration {
	d = slices.Clone(d)
	slices.Sort(d)
	return d
}
