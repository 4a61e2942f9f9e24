package obs

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestHashOnlyStoresNothing: a hash-only observer counts its records and
// keeps none. Over 100k records the heap grows by less than one full chunk of
// the store it replaces: everything it allocated, kept or not, is under
// maxChunk events' worth.
func TestHashOnlyStoresNothing(t *testing.T) {
	const n = 100_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o := NewHashOnly()
	for i := 0; i < n; i++ {
		o.Emit(time.Duration(i), "net", "deliver", "h", Int("bytes", int64(i)), Str("link", "h->core"))
	}
	runtime.ReadMemStats(&after)
	if o.Len() != n || o.Events() != nil {
		t.Fatalf("Len = %d, Events() has %d events; want %d and nil", o.Len(), len(o.Events()), n)
	}
	chunk := uint64(maxChunk) * uint64(unsafe.Sizeof(Event{}))
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= chunk {
		t.Errorf("recording %d events allocated %d bytes, want under one chunk (%d)", n, grew, chunk)
	}

	// Folding a leg keeps a duration per closed span and a map entry per open
	// one: after n closed spans of the leg, as many untraced spans of the same
	// label, and open ones left open, the live heap has grown by at most 8
	// bytes a closed span plus one map bucket (eight slots, their control
	// word and an overflow pointer) an open one.
	const open = 1000
	bucket := 8*(unsafe.Sizeof(uint64(0))+unsafe.Sizeof(openSpan{})) + 16
	runtime.GC()
	runtime.ReadMemStats(&before)
	o = NewHashOnly("rmf/job")
	root := o.BeginTrace(0, "mpi", "rank", "h")
	for i := 0; i < n; i++ {
		at := time.Duration(i)
		job := o.BeginChild(at, root, "rmf", "job", "h")
		o.End(at+1, o.Begin(at, "rmf", "job", "h"), "rmf", "job", "h")
		o.EndSpan(at+2, job, "rmf", "job", "h")
	}
	for i := 0; i < open; i++ {
		o.BeginChild(n, root, "rmf", "job", "h")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if durs := o.Durations("rmf/job"); len(durs) != n || durs[n-1] != 2 {
		t.Fatalf("folded %d durations, want %d of 2ns", len(durs), n)
	}
	limit := 8*n + open*int64(bucket)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > limit {
		t.Errorf("folding %d closed and %d open spans grew the heap by %d bytes, want at most %d", n, open, grew, limit)
	}
	runtime.KeepAlive(o)
}

// FuzzHashOnlyMatchesRecording: whatever a run records, the hash-only
// observer's hash is the recording observer's, and both are the FNV-64a of
// the JSONL export. Each input records TestFirstDiff's trace (n events, the
// odd one at oddAt) and then plays prog (see play) on both observers.
func FuzzHashOnlyMatchesRecording(f *testing.F) {
	f.Add(uint8(200), uint8(255), []byte{})
	f.Add(uint8(200), uint8(minChunk+6), []byte{})
	f.Add(uint8(minChunk+6), uint8(255), []byte{
		3, 1, 0, 2, 6, 1, 3, 0, 4, // BeginTrace, one string field
		4, 2, 1, 0x82, '"', '\\', 2, 2, 5, 1, 0x81, 0x01, 0x10, 7, // BeginChild under it: a raw name, an int and a string field
		11, 3, 0, 7, 2, 0, // EmitCtx under the child
		1, 4, 6, 5, 3, 0, // a flat Begin
		2, 5, 0, 1, 2, 0, 2, 5, 0, 1, 2, 0, 2, 5, 0, 1, 2, 0, // End all three
		0, 6, 0x83, 0x00, 0x1f, '\n', 5, 4, 3, 3, 0xff, 7, 1, 0x80, 2, 0x81, 'x', // Emit: raw control-byte category, -1<<27 and two more fields
		2, 0, 0, 0, 0, 0, // an End nobody began
	})
	f.Fuzz(func(t *testing.T, n, oddAt uint8, prog []byte) {
		rec, sum := New(), NewHashOnly()
		for _, o := range []*Observer{rec, sum} {
			play(diffTrace(o, int(n), int(oddAt)), prog)
		}
		var jsonl bytes.Buffer
		if err := rec.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		var h Hasher
		_, _ = h.Write(jsonl.Bytes())
		if rec.Hash() != h.Sum64() || sum.Hash() != h.Sum64() {
			t.Fatalf("hash-only %016x, recording %016x, FNV-64a of the JSONL %016x", sum.Hash(), rec.Hash(), h.Sum64())
		}
		if sum.Len() != rec.Len() || sum.Events() != nil {
			t.Fatalf("hash-only Len %d (recording %d), Events() has %d", sum.Len(), rec.Len(), len(sum.Events()))
		}
	})
}

// play records the program prog on o, one op after another. An op's first
// byte picks the method (mod 6: Emit, Begin, End, BeginTrace, BeginChild,
// EmitCtx) and, above that, which open span a child or marker parents under;
// then come a time step in microseconds, the category, name and track, and
// the fields. Reads past the end are zeros.
func play(o *Observer, prog []byte) {
	r := progReader{b: prog}
	var at time.Duration
	var open []TraceContext // spans begun and not yet ended, newest last
	for len(r.b) > 0 {
		op := r.byte()
		at += time.Duration(r.byte()) * time.Microsecond
		cat, name, track := r.str(), r.str(), r.str()
		fields := r.fields()
		var parent TraceContext
		if len(open) > 0 {
			parent = open[int(op/6)%len(open)]
		}
		switch op % 6 {
		case 0:
			o.Emit(at, cat, name, track, fields...)
		case 1:
			open = append(open, TraceContext{Span: o.Begin(at, cat, name, track, fields...)})
		case 2:
			id := SpanID(op) // no open span: an End nobody began
			if len(open) > 0 {
				id, open = open[len(open)-1].Span, open[:len(open)-1]
			}
			o.End(at, id, cat, name, track, fields...)
		case 3:
			open = append(open, o.BeginTrace(at, cat, name, track, fields...))
		case 4:
			open = append(open, o.BeginChild(at, parent, cat, name, track, fields...))
		default:
			o.EmitCtx(at, parent, cat, name, track, fields...)
		}
	}
}

// fuzzStrings hold every byte class the JSON escaper treats apart: quotes,
// backslashes, control bytes, and bytes above ASCII.
var fuzzStrings = []string{"net", "", "h", `q"uote`, `back\slash`, "ctl\x00\x01\x1f", "line\nbreak\ttab", "\x7f\xff é"}

type progReader struct{ b []byte }

func (r *progReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// str reads a string: a byte below 0x80 picks one of fuzzStrings; above, its
// low four bits are the length of the raw bytes that follow.
func (r *progReader) str() string {
	c := r.byte()
	if c < 0x80 {
		return fuzzStrings[int(c)%len(fuzzStrings)]
	}
	n := min(int(c&0x0f), len(r.b))
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// fields reads up to three fields: a count, then per field a key and a byte
// whose low bit picks a string value (read next) or an integer made of it.
func (r *progReader) fields() []Field {
	fs := make([]Field, r.byte()%4)
	for i := range fs {
		k := r.str()
		if c := r.byte(); c&1 == 0 {
			fs[i] = Str(k, r.str())
		} else {
			fs[i] = Int(k, int64(int8(c))<<(c%57))
		}
	}
	return fs
}
