package gridftp

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzReadBlock throws arbitrary bytes at the data-channel block reader: it
// must never panic, never return a block larger than MaxBlock, and any block
// it does accept must re-encode to the exact bytes it consumed.
func FuzzReadBlock(f *testing.F) {
	// Seed with well-formed frames, an EOD, and assorted corruptions.
	var good bytes.Buffer
	_ = writeBlock(&good, 0, 0, []byte("hello gridftp"))
	f.Add(good.Bytes())
	var eod bytes.Buffer
	_ = writeEOD(&eod)
	f.Add(eod.Bytes())
	var offset bytes.Buffer
	_ = writeBlock(&offset, 0, 1<<40, bytes.Repeat([]byte{0xaa}, 300))
	f.Add(offset.Bytes())
	huge := make([]byte, blockHdrSize)
	binary.BigEndian.PutUint32(huge[9:13], MaxBlock+1)
	f.Add(huge)
	neg := make([]byte, blockHdrSize)
	binary.BigEndian.PutUint64(neg[1:9], 1<<63)
	f.Add(neg)
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2})

	f.Fuzz(func(t *testing.T, in []byte) {
		r := bytes.NewReader(in)
		consumed := 0
		var buf []byte // kept across blocks, as the data channels keep theirs
		for {
			flags, off, payload, err := readBlock(r, &buf)
			if err != nil {
				if consumed == 0 && len(in) == 0 && err != io.EOF {
					t.Fatalf("empty input: %v", err)
				}
				return
			}
			if len(payload) > MaxBlock {
				t.Fatalf("accepted %d-byte block beyond MaxBlock", len(payload))
			}
			if off < 0 || off+int64(len(payload)) < 0 {
				t.Fatalf("accepted overflowing block [%d,+%d)", off, len(payload))
			}
			// Round trip: the accepted block re-encodes to the bytes read.
			var re bytes.Buffer
			if err := writeBlock(&re, flags, off, payload); err != nil {
				t.Fatal(err)
			}
			end := consumed + re.Len()
			if end > len(in) || !bytes.Equal(re.Bytes(), in[consumed:end]) {
				t.Fatalf("re-encode mismatch at %d", consumed)
			}
			consumed = end
		}
	})
}

// FuzzDecodeLedger checks that hostile restart-marker encodings either fail
// cleanly or decode to a consistent ledger (sorted, disjoint, non-adjacent
// ranges whose Encode round-trips through DecodeLedger).
func FuzzDecodeLedger(f *testing.F) {
	var l Ledger
	l.Add(0, 64<<10)
	l.Add(200<<10, 32<<10)
	f.Add(l.Encode())
	f.Add((&Ledger{}).Encode())
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9})

	f.Fuzz(func(t *testing.T, in []byte) {
		dec, err := DecodeLedger(in)
		if err != nil {
			return
		}
		ranges := dec.Ranges()
		for i, r := range ranges {
			if r.Off < 0 || r.Len <= 0 || r.Off+r.Len < 0 {
				t.Fatalf("decoded invalid range %v", r)
			}
			if i > 0 && ranges[i-1].End() >= r.Off {
				t.Fatalf("ranges not disjoint/sorted: %v", ranges)
			}
		}
		re, err := DecodeLedger(dec.Encode())
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !bytes.Equal(re.Encode(), dec.Encode()) {
			t.Fatal("encode not stable")
		}
	})
}
