package obs

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestNilObserverIsNoOp pins the disabled contract: every method on a nil
// observer (and on nil instruments) is safe and records nothing.
func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	o.Emit(1, "net", "x", "h")
	id := o.Begin(2, "net", "y", "h")
	if id != 0 {
		t.Fatalf("nil Begin returned %d", id)
	}
	o.End(3, id, "net", "y", "h")
	if o.Len() != 0 || o.Events() != nil {
		t.Fatal("nil observer recorded events")
	}
	m := o.Metrics()
	if m != nil {
		t.Fatal("nil observer returned a registry")
	}
	c := m.Counter("c")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter held a value")
	}
	g := m.Gauge("g")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 || g.Max() != 0 {
		t.Fatal("nil gauge held a value")
	}
	h := m.Histogram("h")
	h.Observe(9)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram held samples")
	}
	if rows := m.Snapshot(nil); len(rows) != 0 {
		t.Fatalf("nil registry snapshot %v", rows)
	}
	if err := o.WriteJSONL(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

// TestEmitBeginEnd checks recording order, span IDs, and field round-trips.
func TestEmitBeginEnd(t *testing.T) {
	o := New()
	o.Emit(10*time.Microsecond, "net", "send", "hostA", Int("bytes", 64), Str("link", "a->b"))
	id := o.Begin(20*time.Microsecond, "xfer", "ping", "hostA")
	o.End(55*time.Microsecond, id, "xfer", "ping", "hostA")
	ev := o.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	if ev[0].Ph != PhaseInstant || ev[0].Fields[0].Int != 64 || ev[0].Fields[1].Str != "a->b" {
		t.Fatalf("instant event mangled: %+v", ev[0])
	}
	if ev[1].Ph != PhaseBegin || ev[2].Ph != PhaseEnd || ev[1].ID != ev[2].ID || ev[1].ID == 0 {
		t.Fatalf("span not paired: %+v / %+v", ev[1], ev[2])
	}
	id2 := o.Begin(60*time.Microsecond, "xfer", "pong", "hostB")
	if id2 == id {
		t.Fatal("span IDs not unique")
	}
}

// TestJSONLDeterministic checks the serialization byte-for-byte, including
// string escaping, and that Hash is a pure function of the events.
func TestJSONLDeterministic(t *testing.T) {
	build := func() *Observer {
		o := New()
		o.Emit(1500, "net", "q\"uote", "h\\ost", Int("n", -3), Str("s", "line\nbreak"))
		id := o.Begin(2000, "relay", "recv", "outer")
		o.End(2600, id, "relay", "recv", "outer")
		return o
	}
	a, b := build(), build()
	var sa, sb strings.Builder
	if err := a.WriteJSONL(&sa); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Fatal("JSONL not deterministic")
	}
	want := `{"at":1500,"ph":"i","cat":"net","name":"q\"uote","track":"h\\ost","n":-3,"s":"line\u000abreak"}` + "\n" +
		`{"at":2000,"ph":"B","cat":"relay","name":"recv","track":"outer","id":1}` + "\n" +
		`{"at":2600,"ph":"E","cat":"relay","name":"recv","track":"outer","id":1}` + "\n"
	if sa.String() != want {
		t.Fatalf("JSONL:\n%s\nwant:\n%s", sa.String(), want)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("hashes differ for identical traces")
	}
	a.Emit(3000, "net", "extra", "h")
	if a.Hash() == b.Hash() {
		t.Fatal("hash ignored an extra event")
	}
}

// TestChromeTrace sanity-checks the trace_event output: valid bracketed
// array, thread metadata per track, microsecond timestamps with sub-µs
// remainders.
func TestChromeTrace(t *testing.T) {
	o := New()
	o.Emit(1500, "net", "send", "hostA")
	id := o.Begin(2*time.Microsecond, "xfer", "ping", "hostB")
	o.End(5*time.Microsecond, id, "xfer", "ping", "hostB")
	var sb strings.Builder
	if err := o.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "[\n") || !strings.HasSuffix(out, "\n]\n") {
		t.Fatalf("not a JSON array:\n%s", out)
	}
	for _, want := range []string{
		`"thread_name","args":{"name":"hostA"}`,
		`"thread_name","args":{"name":"hostB"}`,
		`"ts":1.500`, // 1500ns = 1.5µs
		`"ts":2,`,
		`"s":"t"`,
		`"args":{"span":1}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %q:\n%s", want, out)
		}
	}
	// Disabled observer still writes a valid (empty) array.
	var empty strings.Builder
	var nilObs *Observer
	if err := nilObs.WriteChromeTrace(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.String() != "[]\n" {
		t.Fatalf("nil chrome trace = %q", empty.String())
	}
}

// TestMetrics exercises counters, gauges (high-water), histograms
// (count and sum), handle caching, and the sorted snapshot.
func TestMetrics(t *testing.T) {
	o := New()
	m := o.Metrics()
	c := m.Counter("link.bytes")
	c.Add(100)
	c.Add(28)
	if m.Counter("link.bytes") != c {
		t.Fatal("counter handle not cached")
	}
	if c.Value() != 128 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := m.Gauge("queue.depth")
	g.Add(1)
	g.Add(1)
	g.Add(-1)
	if g.Value() != 1 || g.Max() != 2 {
		t.Fatalf("gauge = %d max %d", g.Value(), g.Max())
	}
	h := m.Histogram("rtt_ns")
	for _, v := range []int64{0, 1, 2, 3, 1000, 1500000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1501006 {
		t.Fatalf("hist n=%d sum=%d", h.Count(), h.Sum())
	}
	want := []SnapshotRow{{KindCounter, "link.bytes", 128}, {KindGauge, "queue.depth", 1}, {KindHistogram, "rtt_ns", 6}}
	if rows := m.Snapshot(nil); !reflect.DeepEqual(rows, want) {
		t.Errorf("snapshot %v, want %v", rows, want)
	}
}

// TestMetricUpdatesDoNotAllocate pins the allocation-free contract for
// cached instrument handles, enabled and disabled alike.
func TestMetricUpdatesDoNotAllocate(t *testing.T) {
	o := New()
	c := o.Metrics().Counter("c")
	g := o.Metrics().Gauge("g")
	h := o.Metrics().Histogram("h")
	var nilC *Counter
	var nilG *Gauge
	var nilH *Histogram
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		g.Add(1)
		h.Observe(42)
		nilC.Add(1)
		nilG.Add(1)
		nilH.Observe(42)
	}); n != 0 {
		t.Fatalf("metric updates allocate: %v allocs/op", n)
	}
}

// TestDisabledTracingDoesNotAllocate pins the overhead contract for the
// span API: with tracing off (a nil observer) every call is a branch and a
// return — no event is built, nothing escapes.
func TestDisabledTracingDoesNotAllocate(t *testing.T) {
	var o *Observer
	var parent TraceContext
	if n := testing.AllocsPerRun(1000, func() {
		o.Emit(1, "rmf", "submit", "t")
		id := o.Begin(2, "rmf", "job", "t")
		o.End(3, id, "rmf", "job", "t")
		tc := o.BeginTrace(4, "rmf", "job", "t")
		child := o.BeginChild(5, tc, "gram", "submit", "t")
		o.EndSpan(6, child, "gram", "submit", "t")
		span := o.BeginSpan(7, parent, "mpi", "rank", "t")
		o.EndSpan(8, span, "mpi", "rank", "t")
		o.EmitCtx(9, tc, "rmf", "requeue", "t")
		if o.Enabled() || o.Len() != 0 || o.Events() != nil || o.Metrics() != nil {
			t.Fatal("nil observer recorded something")
		}
	}); n != 0 {
		t.Fatalf("disabled tracing allocates: %v allocs/op", n)
	}
}

// TestFrom checks observer extraction via the duck-typed carrier.
func TestFrom(t *testing.T) {
	o := New()
	if From(carrierStub{o}) != o {
		t.Fatal("From missed the carrier")
	}
	if From(struct{}{}) != nil {
		t.Fatal("From invented an observer")
	}
	if From(nil) != nil {
		t.Fatal("From(nil) non-nil")
	}
}

type carrierStub struct{ o *Observer }

func (c carrierStub) Observer() *Observer { return c.o }
