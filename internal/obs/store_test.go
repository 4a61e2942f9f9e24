package obs

import (
	"bytes"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// mixedTrace records n events through every recording method — instants
// with three fields, trace roots, causal children on other tracks (so the
// Chrome export draws flow arrows through its span pointers), context
// markers with a string needing escapes, and span ends — and returns the
// observer together with an independently built flat copy of what it should
// hold.
func mixedTrace(n int) (*Observer, []Event) {
	o := New()
	flat := make([]Event, 0, n)
	var open []TraceContext
	var nextID, nextTrace uint64
	for i := 0; len(flat) < n; i++ {
		at := time.Duration(i) * time.Microsecond
		track := "host" + strconv.Itoa(i%7)
		switch i % 5 {
		case 0:
			f := []Field{Int("bytes", int64(i)), Int("seq", int64(i/5)), Str("link", track+"->core")}
			o.Emit(at, "net", "deliver", track, f...)
			flat = append(flat, Event{At: at, Ph: PhaseInstant, Cat: "net", Name: "deliver", Track: track, Fields: f})
		case 1:
			f := []Field{Str("rsl", `&(executable="knap")`)}
			open = append(open, o.BeginTrace(at, "rmf", "job", track, f...))
			nextID, nextTrace = nextID+1, nextTrace+1
			flat = append(flat, Event{At: at, Ph: PhaseBegin, Cat: "rmf", Name: "job", Track: track,
				ID: nextID, Trace: nextTrace, Fields: f})
		case 2:
			parent := open[len(open)-1]
			open = append(open, o.BeginChild(at, parent, "gram", "submit", track))
			nextID++
			flat = append(flat, Event{At: at, Ph: PhaseBegin, Cat: "gram", Name: "submit", Track: track,
				ID: nextID, Trace: parent.Trace, Parent: uint64(parent.Span)})
		case 3:
			parent := open[len(open)-1]
			f := []Field{Int("attempt", int64(i)), Str("why", "line\nbreak")}
			o.EmitCtx(at, parent, "rmf", "requeue", track, f...)
			flat = append(flat, Event{At: at, Ph: PhaseInstant, Cat: "rmf", Name: "requeue", Track: track,
				Trace: parent.Trace, Parent: uint64(parent.Span), Fields: f})
		default:
			tc := open[len(open)-1]
			open = open[:len(open)-1]
			o.EndSpan(at, tc, "gram", "submit", track)
			flat = append(flat, Event{At: at, Ph: PhaseEnd, Cat: "gram", Name: "submit", Track: track, ID: uint64(tc.Span)})
		}
	}
	return o, flat
}

// TestStoreChunkEdges walks trace lengths around every chunk boundary: the
// first chunk (64), the first full-size one (4,096 events in the trace, and
// the 4,096-capacity chunk that ends the doubling at 8,128) and one event
// into the fixed-size chunks after it.
func TestStoreChunkEdges(t *testing.T) {
	doubled := 0 // events held when the doubling has reached maxChunk
	for c := minChunk; c <= maxChunk; c *= 2 {
		doubled += c
	}
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096, 4097, doubled - 1, doubled, doubled + 1, doubled + maxChunk + 1} {
		o, flat := mixedTrace(n)
		ref := FromEvents(flat)
		if o.Len() != n || ref.Len() != n {
			t.Fatalf("n=%d: Len = %d, reference %d", n, o.Len(), ref.Len())
		}
		if got := o.Events(); len(got) != n || (n > 0 && !reflect.DeepEqual(got, flat)) {
			t.Fatalf("n=%d: Events() differs from the emitted sequence", n)
		}
		if o.Hash() != ref.Hash() {
			t.Fatalf("n=%d: Hash %016x, flat reference %016x", n, o.Hash(), ref.Hash())
		}
		if i, a, b := FirstDiff(o, ref); i != -1 {
			t.Fatalf("n=%d: FirstDiff = %d: %s | %s", n, i, a, b)
		}
	}
}

// TestStoreExportsMatchFlatReference: every exporter must write the same
// bytes from the chunked store as from one flat slice of the same events.
func TestStoreExportsMatchFlatReference(t *testing.T) {
	o, flat := mixedTrace(10_000)
	ref := FromEvents(flat)
	for _, ex := range []struct {
		name  string
		write func(*Observer, *bytes.Buffer) error
	}{
		{"jsonl", func(o *Observer, b *bytes.Buffer) error { return o.WriteJSONL(b) }},
		{"chrome", func(o *Observer, b *bytes.Buffer) error { return o.WriteChromeTrace(b) }},
	} {
		var got, want bytes.Buffer
		if err := ex.write(o, &got); err != nil {
			t.Fatal(err)
		}
		if err := ex.write(ref, &want); err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: %d bytes from the chunked store, %d from the flat reference, or they differ",
				ex.name, got.Len(), want.Len())
		}
		if ex.name == "jsonl" {
			var h Hasher
			_, _ = h.Write(got.Bytes())
			if o.Hash() != h.Sum64() {
				t.Errorf("Hash %016x is not the FNV-64a of the JSONL bytes (%016x)", o.Hash(), h.Sum64())
			}
		}
	}
}

// TestStoreOwnsFields: the observer keeps its own copy of an event's fields,
// so a caller reusing its buffer cannot rewrite history, and a stored
// event's Fields has no spare capacity reaching into the next event's.
func TestStoreOwnsFields(t *testing.T) {
	o := New()
	buf := []Field{Int("a", 1), Str("b", "x")}
	o.Emit(1, "net", "first", "h", buf...)
	buf[0], buf[1] = Int("z", 9), Str("y", "rewritten")
	o.Emit(2, "net", "second", "h", buf...)
	ev := o.Events()
	if ev[0].Fields[0] != Int("a", 1) || ev[0].Fields[1] != Str("b", "x") {
		t.Fatalf("first event rewritten through the caller's buffer: %+v", ev[0].Fields)
	}
	_ = append(ev[0].Fields, Int("spill", 1))
	if ev[1].Fields[0] != Int("z", 9) {
		t.Fatalf("append to the first event's Fields overwrote the second's: %+v", ev[1].Fields)
	}
}

// TestEventsSnapshots: a slice Events returned stays what it was when more
// events arrive, the next call sees them, and with no append in between the
// flat copy is reused rather than rebuilt.
func TestEventsSnapshots(t *testing.T) {
	for _, n := range []int{10, 100} { // within the first chunk, and across two
		o := New()
		emit := func(from, to int) {
			for i := from; i < to; i++ {
				o.Emit(time.Duration(i), "net", "e", "h", Int("i", int64(i)))
			}
		}
		emit(0, n)
		before := o.Events()
		emit(n, 2*n)
		after := o.Events()
		if len(before) != n || len(after) != 2*n {
			t.Fatalf("n=%d: len before = %d, after = %d", n, len(before), len(after))
		}
		for i, e := range after {
			if e.Fields[0].Int != int64(i) || (i < n && !reflect.DeepEqual(before[i], e)) {
				t.Fatalf("n=%d: event %d = %+v", n, i, e)
			}
		}
		if again := o.Events(); &again[0] != &after[0] {
			t.Errorf("n=%d: Events() rebuilt its copy with no append in between", n)
		}
	}
}

// TestEmitAmortisedAllocs pins what the store is for: once the chunks have
// reached full size, recording an event with three fields, a flat span or a
// causal child span allocates a chunk now and then and nothing per call.
// (With a retained variadic slice it was more than one allocation an event.)
// A hash-only observer reuses one line buffer, so once that buffer has grown
// to the longest line it allocates nothing at all.
func TestEmitAmortisedAllocs(t *testing.T) {
	modes := []struct {
		name    string
		new     func() *Observer
		perCall float64 // the most allocations a call may average
	}{
		{"recording", New, 0.02},
		{"hash-only", NewHashOnly, 0},
	}
	for _, c := range []struct {
		name   string
		record func(o *Observer, root TraceContext, i int)
	}{
		{"emit", func(o *Observer, _ TraceContext, i int) {
			v := int64(i)
			o.Emit(time.Duration(i), "net", "deliver", "h", Int("bytes", v), Int("seq", v), Int("hop", 3))
		}},
		{"span", func(o *Observer, _ TraceContext, i int) {
			id := o.Begin(time.Duration(i), "rmf", "job", "h")
			o.End(time.Duration(i+1), id, "rmf", "job", "h")
		}},
		{"traced", func(o *Observer, root TraceContext, i int) {
			child := o.BeginChild(time.Duration(i), root, "gram", "submit", "h")
			o.EndSpan(time.Duration(i+1), child, "gram", "submit", "h")
		}},
	} {
		for _, m := range modes {
			o := m.new()
			root := o.BeginTrace(0, "rmf", "job", "h")
			for i := 0; i < 3*maxChunk; i++ { // warm: past the doubling
				c.record(o, root, i)
			}
			// One run of all the calls: AllocsPerRun makes a warm-up pass
			// first (the longest lines come last) and returns the total.
			const calls = 100_000
			total := testing.AllocsPerRun(1, func() {
				for i := 0; i < calls; i++ {
					c.record(o, root, i)
				}
			})
			if per := total / calls; per > m.perCall {
				t.Errorf("%s/%s: %.4f allocations per call, want <= %v", m.name, c.name, per, m.perCall)
			}
		}
	}
}

// emitTrace records n instants with three integer fields — the shape of
// simnet's per-buffer delivery event — on one fresh observer.
func emitTrace(n int) *Observer {
	o := New()
	for i := 0; i < n; i++ {
		v := int64(i)
		o.Emit(time.Duration(i), "net", "deliver", "bench", Int("bytes", v), Int("seq", v), Int("hop", 3))
	}
	return o
}

// TestHashAllocsIndependentOfLength: Hash serializes every event into one
// reused line buffer, so what it allocates is that buffer's growth — the
// same for a trace ten times longer.
func TestHashAllocsIndependentOfLength(t *testing.T) {
	short, long := emitTrace(10_000), emitTrace(100_000)
	a := testing.AllocsPerRun(3, func() { short.Hash() })
	b := testing.AllocsPerRun(3, func() { long.Hash() })
	if a != b || a > 8 {
		t.Errorf("Hash allocates %v times over 10k events and %v over 100k, want the same few", a, b)
	}
}

// obsTraceEvents is the trace length BenchmarkObsEmit records and
// BenchmarkObsHash hashes: the size of a chaos scenario's trace, well past
// the store's chunk doubling.
const obsTraceEvents = 1_000_000

// BenchmarkObsEmit times recording one event over a whole run's trace, growth
// of the store included. One op is the full trace.
func BenchmarkObsEmit(b *testing.B) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if emitTrace(obsTraceEvents).Len() != obsTraceEvents {
			b.Fatal("trace lost events")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N) * obsTraceEvents
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
}

// BenchmarkObsHash times the determinism witness: serializing and
// FNV-hashing that trace, which every scenario run does once.
func BenchmarkObsHash(b *testing.B) {
	o := emitTrace(obsTraceEvents)
	want := o.Hash()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if o.Hash() != want {
			b.Fatal("hash not stable")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*obsTraceEvents), "ns/event")
}

// diffTrace records n instants on o, event i carrying field i = i except at
// oddAt, where it is -1, and returns o.
func diffTrace(o *Observer, n, oddAt int) *Observer {
	for i := 0; i < n; i++ {
		v := int64(i)
		if i == oddAt {
			v = -1
		}
		o.Emit(time.Duration(i), "net", "e", "h", Int("i", v))
	}
	return o
}

// TestFirstDiff: the first differing event is named by index with both
// lines, also when it lies past a chunk boundary and when one trace is a
// prefix of the other.
func TestFirstDiff(t *testing.T) {
	build := func(n, oddAt int) *Observer { return diffTrace(New(), n, oddAt) }
	const n, at = 200, minChunk + 6 // in the second chunk
	a := build(n, -1)
	if i, la, lb := FirstDiff(a, build(n, -1)); i != -1 || la != "" || lb != "" {
		t.Fatalf("identical traces: FirstDiff = %d, %q, %q", i, la, lb)
	}
	i, la, lb := FirstDiff(a, build(n, at))
	wantA := `{"at":70,"ph":"i","cat":"net","name":"e","track":"h","i":70}`
	wantB := `{"at":70,"ph":"i","cat":"net","name":"e","track":"h","i":-1}`
	if i != at || la != wantA || lb != wantB {
		t.Fatalf("FirstDiff = %d\n %s\n %s\nwant %d\n %s\n %s", i, la, lb, at, wantA, wantB)
	}
	if i, la, lb := FirstDiff(a, build(at, -1)); i != at || la != wantA || lb != "" {
		t.Fatalf("prefix: FirstDiff = %d, %q, %q", i, la, lb)
	}
	if i, _, lb := FirstDiff(nil, a); i != 0 || lb == "" {
		t.Fatalf("nil observer against a trace: FirstDiff = %d, %q", i, lb)
	}
}
