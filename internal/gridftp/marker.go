package gridftp

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Range is a half-open byte interval [Off, Off+Len) of a file.
type Range struct {
	Off int64
	Len int64
}

// End returns the exclusive upper bound of the range.
func (r Range) End() int64 { return r.Off + r.Len }

// Ledger is a restart-marker ledger: the coalesced, sorted set of byte
// ranges of a file known to have arrived. GridFTP's extended block mode
// tags every block with its offset, so a receiver can account arbitrary
// arrival orders; the ledger is what survives an interrupted transfer and
// what a resume request sends back to the server ("send me everything I
// don't have yet").
type Ledger struct {
	ranges []Range // sorted by Off, non-overlapping, non-adjacent
}

// Add records the arrival of [off, off+n), merging with existing ranges.
func (l *Ledger) Add(off, n int64) {
	if n <= 0 || off < 0 {
		return
	}
	end := off + n
	// Find the first range that could touch [off, end): the leftmost range
	// with End() >= off.
	i := 0
	for i < len(l.ranges) && l.ranges[i].End() < off {
		i++
	}
	j := i
	for j < len(l.ranges) && l.ranges[j].Off <= end {
		if l.ranges[j].Off < off {
			off = l.ranges[j].Off
		}
		if l.ranges[j].End() > end {
			end = l.ranges[j].End()
		}
		j++
	}
	merged := Range{Off: off, Len: end - off}
	if i == j { // touches nothing: insert, growing only here
		l.ranges = slices.Insert(l.ranges, i, merged)
		return
	}
	l.ranges[i] = merged
	l.ranges = slices.Delete(l.ranges, i+1, j)
}

// Bytes reports the total number of covered bytes.
func (l *Ledger) Bytes() int64 {
	var total int64
	for _, r := range l.ranges {
		total += r.Len
	}
	return total
}

// Complete reports whether [0, total) is fully covered.
func (l *Ledger) Complete(total int64) bool {
	if total == 0 {
		return true
	}
	return len(l.ranges) == 1 && l.ranges[0].Off == 0 && l.ranges[0].Len >= total
}

// Missing returns the gaps in [0, total) not yet covered, sorted by offset.
func (l *Ledger) Missing(total int64) []Range {
	var out []Range
	var pos int64
	for _, r := range l.ranges {
		if r.Off >= total {
			break
		}
		if r.Off > pos {
			out = append(out, Range{Off: pos, Len: r.Off - pos})
		}
		if r.End() > pos {
			pos = r.End()
		}
	}
	if pos < total {
		out = append(out, Range{Off: pos, Len: total - pos})
	}
	return out
}

// Encode serializes the ledger as restart-marker records:
// [count:4] then count × [off:8][len:8], big-endian.
func (l *Ledger) Encode() []byte {
	buf := make([]byte, 4+16*len(l.ranges))
	binary.BigEndian.PutUint32(buf, uint32(len(l.ranges)))
	for i, r := range l.ranges {
		binary.BigEndian.PutUint64(buf[4+16*i:], uint64(r.Off))
		binary.BigEndian.PutUint64(buf[12+16*i:], uint64(r.Len))
	}
	return buf
}

// DecodeLedger parses restart-marker records. Records are replayed through
// Add, so a hostile or corrupt encoding can produce at worst a valid (if
// useless) ledger, never an inconsistent one.
func DecodeLedger(b []byte) (*Ledger, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("gridftp: ledger too short (%d bytes)", len(b))
	}
	count := int(binary.BigEndian.Uint32(b))
	if len(b) != 4+16*count {
		return nil, fmt.Errorf("gridftp: ledger length %d does not match %d records", len(b), count)
	}
	l := &Ledger{}
	for i := 0; i < count; i++ {
		off := int64(binary.BigEndian.Uint64(b[4+16*i:]))
		n := int64(binary.BigEndian.Uint64(b[12+16*i:]))
		if off < 0 || n < 0 || off+n < 0 {
			return nil, fmt.Errorf("gridftp: ledger record %d out of range (off=%d len=%d)", i, off, n)
		}
		l.Add(off, n)
	}
	return l, nil
}
