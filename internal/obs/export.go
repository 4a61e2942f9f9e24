package obs

import (
	"bufio"
	"bytes"
	"io"
	"strconv"
)

// Serialization is hand-rolled rather than encoding/json so the byte stream
// is exactly reproducible: field order is emission order, numbers are plain
// base-10 int64s (sim time in nanoseconds), and no reflection or map
// iteration is involved. Trace hashes are FNV-64a over the JSONL bytes, the
// same construction internal/bench/golden_test.go uses for table output.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hasher accumulates an FNV-64a hash. The zero value is ready to use.
type Hasher struct{ h uint64 }

// Write folds p into the hash; it never fails.
func (s *Hasher) Write(p []byte) (int, error) {
	h := s.h
	if h == 0 {
		h = fnvOffset
	}
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	s.h = h
	return len(p), nil
}

// Sum64 returns the current hash.
func (s *Hasher) Sum64() uint64 {
	if s.h == 0 {
		return fnvOffset
	}
	return s.h
}

// AppendJSONString appends s as a JSON string literal (quoted, with the
// minimal escaping the deterministic exporters rely on). Shared with the
// time-series layer so every JSONL stream escapes identically.
func AppendJSONString(b []byte, s string) []byte { return appendJSONString(b, s) }

func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func hexDigit(n byte) byte {
	if n < 10 {
		return '0' + n
	}
	return 'a' + n - 10
}

func appendEventJSON(b []byte, e *Event) []byte {
	b = append(b, `{"at":`...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	b = append(b, `,"ph":"`...)
	b = append(b, e.Ph, '"')
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, e.Cat)
	b = append(b, `,"name":`...)
	b = appendJSONString(b, e.Name)
	b = append(b, `,"track":`...)
	b = appendJSONString(b, e.Track)
	if e.ID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendUint(b, e.ID, 10)
	}
	if e.Trace != 0 {
		b = append(b, `,"trace":`...)
		b = strconv.AppendUint(b, e.Trace, 10)
	}
	if e.Parent != 0 {
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, e.Parent, 10)
	}
	for i := range e.Fields {
		f := &e.Fields[i]
		b = append(b, ',')
		b = appendJSONString(b, f.Key)
		b = append(b, ':')
		if f.IsStr {
			b = appendJSONString(b, f.Str)
		} else {
			b = strconv.AppendInt(b, f.Int, 10)
		}
	}
	return append(b, '}')
}

// WriteJSONL writes one JSON object per event, in emission order. The bytes
// are deterministic for a deterministic run.
func (o *Observer) WriteJSONL(w io.Writer) error {
	if o == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, c := range o.chunks {
		for i := range c {
			buf = appendEventLine(buf[:0], &c[i])
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// appendEventLine appends e's JSONL line, newline included.
func appendEventLine(b []byte, e *Event) []byte {
	return append(appendEventJSON(b, e), '\n')
}

// Hash returns the FNV-64a hash of the JSONL serialization — the value the
// golden-trace tests pin across GOMAXPROCS and worker counts. Each line is
// folded into the hash as it is built; nothing is buffered.
func (o *Observer) Hash() uint64 {
	var h Hasher
	if o == nil {
		return h.Sum64()
	}
	var buf []byte
	for _, c := range o.chunks {
		for i := range c {
			buf = appendEventLine(buf[:0], &c[i])
			_, _ = h.Write(buf) // Hasher.Write never fails
		}
	}
	return h.Sum64()
}

// FirstDiff locates the first event at which two traces differ, comparing
// serialized events in emission order. It returns the event's index and
// both JSONL lines (without the newline); when one trace is a strict prefix
// of the other, index is the shorter length and the missing side's line is
// empty. Identical traces return index -1.
func FirstDiff(a, b *Observer) (index int, lineA, lineB string) {
	ca, cb := a.cursor(), b.cursor()
	var ba, bb []byte
	for i := 0; ; i++ {
		ea, eb := ca.next(), cb.next()
		if ea == nil && eb == nil {
			return -1, "", ""
		}
		ba, bb = ba[:0], bb[:0]
		if ea != nil {
			ba = appendEventJSON(ba, ea)
		}
		if eb != nil {
			bb = appendEventJSON(bb, eb)
		}
		if ea == nil || eb == nil || !bytes.Equal(ba, bb) {
			return i, string(ba), string(bb)
		}
	}
}

// cursor walks a store in emission order, for the walkers that nested range
// loops over the chunks do not suit: FirstDiff steps two traces in lockstep,
// and the Chrome exporter's loop body is long enough without two more levels.
type cursor struct {
	chunks [][]Event
	i      int
}

func (o *Observer) cursor() cursor {
	if o == nil {
		return cursor{}
	}
	return cursor{chunks: o.chunks}
}

// next returns the next event, or nil at the end of the trace.
func (c *cursor) next() *Event {
	for len(c.chunks) > 0 {
		if c.i < len(c.chunks[0]) {
			c.i++
			return &c.chunks[0][c.i-1]
		}
		c.chunks, c.i = c.chunks[1:], 0
	}
	return nil
}

// WriteChromeTrace writes the trace in Chrome's trace_event JSON array
// format, loadable in chrome://tracing or https://ui.perfetto.dev. Each
// Track becomes a named "thread"; timestamps are virtual microseconds with
// nanosecond remainders carried in the span args. Instant events use
// thread scope.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	// Assign stable tids in order of first appearance, and remember where
	// each span begins so causal children can draw flow arrows back to
	// their parent span's begin point.
	tids := make(map[string]int)
	var order []string
	begins := make(map[uint64]*Event)
	for cur := o.cursor(); ; {
		e := cur.next()
		if e == nil {
			break
		}
		if _, ok := tids[e.Track]; !ok {
			tids[e.Track] = len(tids) + 1
			order = append(order, e.Track)
		}
		if e.Ph == PhaseBegin && e.ID != 0 {
			begins[e.ID] = e
		}
	}
	var buf []byte
	first := true
	put := func() error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.Write(buf)
		return err
	}
	for _, t := range order {
		buf = append(buf[:0], `{"ph":"M","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tids[t]), 10)
		buf = append(buf, `,"name":"thread_name","args":{"name":`...)
		buf = appendJSONString(buf, t)
		buf = append(buf, `}}`...)
		if err := put(); err != nil {
			return err
		}
	}
	appendTS := func(buf []byte, at int64) []byte {
		us := at / 1000
		ns := at % 1000
		buf = strconv.AppendInt(buf, us, 10)
		if ns != 0 {
			buf = append(buf, '.')
			buf = append(buf, byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
		}
		return buf
	}
	for cur := o.cursor(); ; {
		e := cur.next()
		if e == nil {
			break
		}
		buf = append(buf[:0], `{"ph":"`...)
		buf = append(buf, e.Ph, '"')
		buf = append(buf, `,"pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tids[e.Track]), 10)
		buf = append(buf, `,"ts":`...)
		buf = appendTS(buf, int64(e.At))
		buf = append(buf, `,"cat":`...)
		buf = appendJSONString(buf, e.Cat)
		buf = append(buf, `,"name":`...)
		buf = appendJSONString(buf, e.Name)
		if e.Ph == PhaseInstant {
			buf = append(buf, `,"s":"t"`...)
		}
		if len(e.Fields) > 0 || e.ID != 0 || e.Trace != 0 {
			buf = append(buf, `,"args":{`...)
			n := 0
			if e.ID != 0 {
				buf = append(buf, `"span":`...)
				buf = strconv.AppendUint(buf, e.ID, 10)
				n++
			}
			if e.Trace != 0 {
				if n > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, `"trace":`...)
				buf = strconv.AppendUint(buf, e.Trace, 10)
				n++
			}
			if e.Parent != 0 {
				if n > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, `"parent":`...)
				buf = strconv.AppendUint(buf, e.Parent, 10)
				n++
			}
			for j := range e.Fields {
				f := &e.Fields[j]
				if n > 0 {
					buf = append(buf, ',')
				}
				n++
				buf = appendJSONString(buf, f.Key)
				buf = append(buf, ':')
				if f.IsStr {
					buf = appendJSONString(buf, f.Str)
				} else {
					buf = strconv.AppendInt(buf, f.Int, 10)
				}
			}
			buf = append(buf, '}')
		}
		buf = append(buf, '}')
		if err := put(); err != nil {
			return err
		}
		// A causal child whose parent span began on a different track gets a
		// flow arrow from the parent's begin point to its own: a paired
		// "s"/"f" record bound by the child's span ID.
		if e.Ph == PhaseBegin && e.Parent != 0 {
			if p, ok := begins[e.Parent]; ok && p.Track != e.Track {
				buf = append(buf[:0], `{"ph":"s","pid":1,"tid":`...)
				buf = strconv.AppendInt(buf, int64(tids[p.Track]), 10)
				buf = append(buf, `,"ts":`...)
				buf = appendTS(buf, int64(p.At))
				buf = append(buf, `,"cat":"flow","name":"causal","id":`...)
				buf = strconv.AppendUint(buf, e.ID, 10)
				buf = append(buf, '}')
				if err := put(); err != nil {
					return err
				}
				buf = append(buf[:0], `{"ph":"f","bp":"e","pid":1,"tid":`...)
				buf = strconv.AppendInt(buf, int64(tids[e.Track]), 10)
				buf = append(buf, `,"ts":`...)
				buf = appendTS(buf, int64(e.At))
				buf = append(buf, `,"cat":"flow","name":"causal","id":`...)
				buf = strconv.AppendUint(buf, e.ID, 10)
				buf = append(buf, '}')
				if err := put(); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
