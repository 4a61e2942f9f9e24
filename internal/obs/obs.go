// Package obs is the deterministic, virtual-time observability layer: every
// timestamp is simulation time (never wall clock), every record is appended
// from kernel-driven code — which executes one process at a time — so a trace
// is a pure function of the simulated run. Two runs of the same scenario
// produce bit-identical traces regardless of GOMAXPROCS or how many
// independent simulations execute concurrently on host threads (each kernel
// owns its own Observer).
//
// The layer has three parts:
//
//   - structured tracing (this file): instant events and begin/end spans,
//     categorized (net, relay, proxy, rmf, hbm, knap, xfer, proc) and stamped
//     with sim time, exported as JSONL and Chrome trace_event JSON;
//   - metrics (metrics.go): an allocation-free registry of counters, gauges
//     and power-of-two histograms, read as one sorted snapshot;
//   - export (export.go): deterministic serialization and hashing.
//
// # Overhead contract
//
// Disabled is the default, and disabled means free: the no-op observer is a
// nil *Observer, every instrumentation site guards with a nil check before
// building any event, and cached *Counter handles are nil too (Add on a nil
// counter is a branch and a return). The zero-alloc regression tests in
// internal/sim and internal/simnet pin this. Enabling tracing must never
// change virtual-time results: instrumentation only reads the clock, it
// never sleeps, computes, or schedules.
package obs

import "time"

// Field is one key/value annotation on an event. Only strings and int64s are
// representable, which keeps serialization trivially deterministic.
type Field struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Str builds a string field.
func Str(k, v string) Field { return Field{Key: k, Str: v, IsStr: true} }

// Int builds an integer field.
func Int(k string, v int64) Field { return Field{Key: k, Int: v} }

// Phase markers, mirroring the Chrome trace_event "ph" values.
const (
	PhaseInstant = byte('i')
	PhaseBegin   = byte('B')
	PhaseEnd     = byte('E')
)

// Event is one trace record. At is virtual time. Track names the timeline
// the event belongs to (a host name, a link name, or host/process). ID links
// a PhaseEnd to its PhaseBegin. Trace and Parent, when nonzero, place the
// event in a causal span tree: Trace identifies the tree (one per traced
// job) and Parent is the span ID of the enclosing span. Untraced events
// keep both zero and serialize exactly as they did before tracing existed.
type Event struct {
	At     time.Duration
	Ph     byte
	Cat    string
	Name   string
	Track  string
	ID     uint64
	Trace  uint64
	Parent uint64
	Fields []Field
}

// SpanID identifies an open span returned by Begin.
type SpanID uint64

// TraceContext places work in a causal span tree: Trace identifies the tree
// (minted once per traced job) and Span is the current enclosing span. The
// zero TraceContext means "untraced" — every API accepting a parent treats
// it as plain flat instrumentation, so call sites never need to guard.
// Contexts flow out of band only (process environments and connection
// baggage), never in wire bytes, so enabling tracing cannot perturb
// simulated timing.
type TraceContext struct {
	Trace uint64
	Span  SpanID
}

// Traced reports whether the context belongs to a trace tree.
func (tc TraceContext) Traced() bool { return tc.Trace != 0 }

// Observer collects a run's trace and metrics. It belongs to exactly one
// simulation kernel: all appends happen from that kernel's cooperatively
// scheduled code, so no locking is needed and event order is deterministic.
// A nil *Observer is the no-op sink; every method is nil-safe, but hot paths
// should still guard with Enabled (or a direct nil check) so that argument
// construction costs nothing when tracing is off.
type Observer struct {
	// chunks is the append-only trace store. A chunk is allocated once at its
	// final capacity and never copied, so recording N events costs N event
	// writes rather than the ~5N a regrowing flat slice pays, and *Event
	// pointers into it stay valid for the observer's lifetime.
	chunks [][]Event
	n      int
	// fields is the tail of the field arena: add copies each event's fields
	// here, so the observer never retains a caller's slice and the variadic
	// []Field at an instrumentation site can stay on the caller's stack.
	// Filled arena chunks are kept alive by the events that point into them.
	fields []Field
	// flat caches the copy Events hands out; any append drops it.
	flat []Event
	// hashOnly (NewHashOnly) replaces the store with its witness: add
	// serializes each record into line, the one reused buffer, folds it into
	// sum and keeps nothing.
	hashOnly bool
	sum      Hasher
	line     []byte
	// legs (NewHashOnly's arguments) fold as their spans close: open holds
	// each traced span labelled with a leg, by span ID, until its first End
	// appends its duration to the leg's durs.
	legs      []foldLeg
	open      map[uint64]openSpan
	metrics   Metrics
	nextID    uint64
	nextTrace uint64
}

// Chunk capacities, in records, for both the event store and the field
// arena: the first chunk is small so a three-event unit-test trace costs a
// few KB, each next one doubles, and from maxChunk on they stay that size
// (4,096 events are ~450 KB).
const (
	minChunk = 64
	maxChunk = 4096
)

// nextChunk is the capacity of the chunk that follows one of capacity prev.
func nextChunk(prev int) int {
	switch c := 2 * prev; {
	case c < minChunk:
		return minChunk
	case c > maxChunk:
		return maxChunk
	default:
		return c
	}
}

// New creates an enabled observer.
func New() *Observer { return &Observer{} }

// NewHashOnly creates an enabled observer for runs whose trace is only ever
// compared by hash: each record is serialized as its JSONL line, folded into
// the hash and dropped, so the run stores no events. Hash, Len and Metrics
// read as they would on New's observer of the same run; Events returns nil,
// and the exporters and FirstDiff see an empty trace.
//
// Each leg is a span label ("cat/name") whose durations the observer keeps:
// see Durations. A span costs a map entry while it is open and 8 bytes once
// it has closed; spans of other labels cost nothing.
func NewHashOnly(legs ...string) *Observer {
	o := &Observer{hashOnly: true}
	if len(legs) > 0 {
		o.legs = make([]foldLeg, len(legs))
		for i, label := range legs {
			o.legs[i].label = label // a repeated leg folds into its first entry
		}
		o.open = make(map[uint64]openSpan)
	}
	return o
}

// foldLeg is one folded span label and the durations of its closed spans.
type foldLeg struct {
	label string
	durs  []time.Duration
}

// openSpan is a folded span awaiting its End: its index in legs and its start.
type openSpan struct {
	leg   int
	start time.Duration
}

// fold keeps the durations of the legs' spans as the records go by, with the
// semantics of causal.Build: an untraced span is not a leg's, the first End
// of a span closes it, an End nobody began is ignored, and a span that never
// ends has no duration.
func (o *Observer) fold(at time.Duration, ph byte, cat, name string, id, trace uint64) {
	switch ph {
	case PhaseBegin:
		if trace == 0 {
			return
		}
		for i := range o.legs {
			if isLabel(o.legs[i].label, cat, name) {
				o.open[id] = openSpan{leg: i, start: at}
				return
			}
		}
	case PhaseEnd:
		if s, ok := o.open[id]; ok {
			delete(o.open, id)
			l := &o.legs[s.leg]
			l.durs = append(l.durs, at-s.start)
		}
	}
}

// isLabel reports whether label is cat+"/"+name without building the string:
// the cut falls after cat, so a cat that contains '/' matches as it would
// joined.
func isLabel(label, cat, name string) bool {
	return len(label) == len(cat)+1+len(name) && label[len(cat)] == '/' &&
		label[:len(cat)] == cat && label[len(cat)+1:] == name
}

// Durations returns the durations of leg's closed spans, in the order they
// closed, on an observer NewHashOnly made with leg among its legs (nil on
// any other). They are the complete spans causal.Build finds labelled leg in
// the same run's recorded trace. The slice is the observer's own; callers
// must not mutate it.
func (o *Observer) Durations(leg string) []time.Duration {
	if o == nil {
		return nil
	}
	for _, l := range o.legs {
		if l.label == leg {
			return l.durs
		}
	}
	return nil
}

// FromEvents wraps an existing event slice (e.g. one parsed back from a
// JSONL export) so the exporters can re-serialize it. The observer takes
// ownership of the slice, which becomes the store's first chunk.
func FromEvents(events []Event) *Observer {
	return &Observer{chunks: [][]Event{events}, n: len(events)}
}

// add appends one event to the store with a private copy of fields. It
// takes the record's parts rather than an Event so that the exported
// recording methods stay within the inliner's budget: a disabled call site
// must remain a nil check, not a call.
func (o *Observer) add(at time.Duration, ph byte, cat, name, track string, id, trace, parent uint64, fields []Field) {
	o.n++
	if o.hashOnly {
		// The line is built before add returns, so the caller's fields need
		// no copy. (A variable of its own: were it e, which the store keeps,
		// the caller's variadic slice would escape to the heap.)
		rec := Event{At: at, Ph: ph, Cat: cat, Name: name, Track: track, ID: id, Trace: trace, Parent: parent, Fields: fields}
		o.line = appendEventLine(o.line[:0], &rec)
		_, _ = o.sum.Write(o.line) // Hasher.Write never fails
		if o.legs != nil {
			o.fold(at, ph, cat, name, id, trace)
		}
		return
	}
	e := Event{At: at, Ph: ph, Cat: cat, Name: name, Track: track, ID: id, Trace: trace, Parent: parent}
	last := len(o.chunks) - 1
	if last < 0 || len(o.chunks[last]) == cap(o.chunks[last]) {
		prev := 0
		if last >= 0 {
			prev = cap(o.chunks[last])
		}
		o.chunks = append(o.chunks, make([]Event, 0, nextChunk(prev)))
		last++
	}
	if n := len(fields); n > 0 {
		if n > cap(o.fields)-len(o.fields) {
			c := nextChunk(cap(o.fields))
			if c < n {
				c = n
			}
			o.fields = make([]Field, 0, c)
		}
		start := len(o.fields)
		o.fields = append(o.fields, fields...)
		// Full slice expression: appending to a stored event's Fields must
		// reallocate, never write into the next event's.
		e.Fields = o.fields[start : start+n : start+n]
	}
	o.chunks[last] = append(o.chunks[last], e)
	o.flat = nil
}

// Enabled reports whether events are being recorded.
func (o *Observer) Enabled() bool { return o != nil }

// Emit records an instant event.
func (o *Observer) Emit(at time.Duration, cat, name, track string, fields ...Field) {
	if o == nil {
		return
	}
	o.add(at, PhaseInstant, cat, name, track, 0, 0, 0, fields)
}

// Begin opens a span and returns its ID (0 when disabled).
func (o *Observer) Begin(at time.Duration, cat, name, track string, fields ...Field) SpanID {
	if o == nil {
		return 0
	}
	return o.begin(at, TraceContext{}, false, cat, name, track, fields).Span
}

// begin opens a span and returns its context: under parent (flat when
// parent is zero), or as the root of a freshly minted trace when root is
// set. Span and trace IDs come from the observer's deterministic counters.
func (o *Observer) begin(at time.Duration, parent TraceContext, root bool, cat, name, track string, fields []Field) TraceContext {
	if root {
		o.nextTrace++
		parent = TraceContext{Trace: o.nextTrace}
	}
	o.nextID++
	o.add(at, PhaseBegin, cat, name, track, o.nextID, parent.Trace, uint64(parent.Span), fields)
	return TraceContext{Trace: parent.Trace, Span: SpanID(o.nextID)}
}

// End closes the span opened by Begin. Cat, name and track are repeated so
// the end record is self-describing (and so Chrome's flow view pairs them).
func (o *Observer) End(at time.Duration, id SpanID, cat, name, track string, fields ...Field) {
	if o == nil || id == 0 {
		return
	}
	o.add(at, PhaseEnd, cat, name, track, uint64(id), 0, 0, fields)
}

// BeginTrace opens the root span of a fresh trace tree: it mints a new trace
// ID from the observer's deterministic counter and returns the context
// children parent under. The zero context comes back when disabled.
func (o *Observer) BeginTrace(at time.Duration, cat, name, track string, fields ...Field) TraceContext {
	if o == nil {
		return TraceContext{}
	}
	return o.begin(at, TraceContext{}, true, cat, name, track, fields)
}

// BeginChild opens a span causally under parent and returns the child
// context. With the zero parent it degrades to a plain flat span (identical
// bytes to Begin), so instrumentation sites call it unconditionally whether
// or not a trace is flowing through them.
func (o *Observer) BeginChild(at time.Duration, parent TraceContext, cat, name, track string, fields ...Field) TraceContext {
	if o == nil {
		return TraceContext{}
	}
	return o.begin(at, parent, false, cat, name, track, fields)
}

// BeginSpan joins parent when it carries a trace and roots a fresh trace
// otherwise: the right call for layers that are a job's entry point when
// invoked directly but a leg of a larger trace when an upstream layer
// (e.g. a gatekeeper relaying an RSL submit) already carries context.
func (o *Observer) BeginSpan(at time.Duration, parent TraceContext, cat, name, track string, fields ...Field) TraceContext {
	if o == nil {
		return TraceContext{}
	}
	return o.begin(at, parent, !parent.Traced(), cat, name, track, fields)
}

// EndSpan closes a span opened by BeginTrace, BeginChild, or BeginSpan.
func (o *Observer) EndSpan(at time.Duration, tc TraceContext, cat, name, track string, fields ...Field) {
	if o == nil || tc.Span == 0 {
		return
	}
	o.add(at, PhaseEnd, cat, name, track, uint64(tc.Span), 0, 0, fields)
}

// EmitCtx records an instant event causally tied to parent (a requeue or
// speculation marker inside a job's tree). Zero parent = plain Emit.
func (o *Observer) EmitCtx(at time.Duration, parent TraceContext, cat, name, track string, fields ...Field) {
	if o == nil {
		return
	}
	o.add(at, PhaseInstant, cat, name, track, 0, parent.Trace, uint64(parent.Span), fields)
}

// Events returns the recorded trace in emission order. The slice is owned by
// the observer; callers must not mutate it. A trace that fits one chunk is
// returned in place; a longer one is copied flat (112 bytes an event), and
// the copy is reused until the next event is recorded. Later events never
// show through a slice returned earlier. A hash-only observer returns nil.
func (o *Observer) Events() []Event {
	if o == nil || o.n == 0 || o.hashOnly {
		return nil
	}
	if len(o.chunks) == 1 {
		return o.chunks[0][:o.n:o.n]
	}
	if o.flat == nil {
		o.flat = make([]Event, 0, o.n)
		for _, c := range o.chunks {
			o.flat = append(o.flat, c...)
		}
	}
	return o.flat
}

// Len reports the number of recorded events.
func (o *Observer) Len() int {
	if o == nil {
		return 0
	}
	return o.n
}

// Metrics returns the observer's metric registry (nil when disabled; the
// registry's constructors are nil-safe and hand back nil instruments, whose
// update methods are no-ops).
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return &o.metrics
}

// carrier is implemented by execution environments that carry an observer
// (simnet.Env does; the real-TCP env does not, so production protocol code
// stays uninstrumented at zero cost).
type carrier interface{ Observer() *Observer }

// From extracts the observer carried by v (typically a transport.Env),
// returning nil — the no-op observer — when v carries none. Protocol layers
// call this once per operation or connection, never per byte.
func From(v interface{}) *Observer {
	if c, ok := v.(carrier); ok {
		return c.Observer()
	}
	return nil
}

// ctxCarrier is implemented by execution environments that carry an ambient
// trace context (simnet.Env does; children inherit it at spawn time).
type ctxCarrier interface{ TraceContext() TraceContext }

// ctxSetter is the writable half of the ambient-context carrier.
type ctxSetter interface{ SetTraceContext(TraceContext) }

// CtxOf extracts the ambient trace context carried by v (typically a
// transport.Env), returning the zero context when v carries none. Like From,
// call it once per operation, never per byte.
func CtxOf(v interface{}) TraceContext {
	if c, ok := v.(ctxCarrier); ok {
		return c.TraceContext()
	}
	return TraceContext{}
}

// SetCtx installs tc as v's ambient trace context so spans opened later in
// the same process (and in processes it spawns) parent under it. It reports
// whether v supports a context.
func SetCtx(v interface{}, tc TraceContext) bool {
	if s, ok := v.(ctxSetter); ok {
		s.SetTraceContext(tc)
		return true
	}
	return false
}

// baggageCarrier is implemented by connections that carry trace baggage
// (simnet conns do: the baggage is shared with the peer endpoint, so a
// server reads the context its dialer attached — out of band, never in the
// simulated byte stream).
type baggageCarrier interface{ TraceBaggage() TraceContext }

// BaggageOf extracts the trace baggage attached to conn, or the zero
// context.
func BaggageOf(conn interface{}) TraceContext {
	if c, ok := conn.(baggageCarrier); ok {
		return c.TraceBaggage()
	}
	return TraceContext{}
}
