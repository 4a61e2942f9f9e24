package gridftp

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Data-channel block framing, modeled on GridFTP's MODE E extended blocks:
// every block is self-describing — [flags:1][offset:8][length:4][payload] —
// so blocks from parallel channels interleave freely and a receiver can
// account partial transfers by offset. A block with flagEOD and zero length
// ends one data channel.
const (
	blockHdrSize = 13
	// flagEOD marks the final (empty) block on a data channel.
	flagEOD = byte(0x01)
	// MaxBlock bounds a single block's payload; anything larger is a
	// protocol violation.
	MaxBlock = 1 << 20
)

// writeBlock emits one block.
func writeBlock(w io.Writer, flags byte, off int64, payload []byte) error {
	var hdr [blockHdrSize]byte
	hdr[0] = flags
	binary.BigEndian.PutUint64(hdr[1:9], uint64(off))
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// writeEOD ends a data channel.
func writeEOD(w io.Writer) error { return writeBlock(w, flagEOD, 0, nil) }

// readBlock reads one block from r. It returns io.EOF only on a clean
// boundary (no partial header). The payload is read into *buf, which is
// grown (to at most MaxBlock) when the block does not fit; a data channel
// keeps one buf for all its blocks. The payload aliases it, so it is valid
// only until the next call with the same buf and must be copied out first.
func readBlock(r io.Reader, buf *[]byte) (flags byte, off int64, payload []byte, err error) {
	var hdr [blockHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("gridftp: truncated block header: %w", err)
		}
		return 0, 0, nil, err
	}
	flags = hdr[0]
	off = int64(binary.BigEndian.Uint64(hdr[1:9]))
	length := int(binary.BigEndian.Uint32(hdr[9:13]))
	if off < 0 {
		return 0, 0, nil, fmt.Errorf("gridftp: negative block offset %d", off)
	}
	if length > MaxBlock {
		return 0, 0, nil, fmt.Errorf("gridftp: block length %d exceeds max %d", length, MaxBlock)
	}
	if off+int64(length) < 0 {
		return 0, 0, nil, fmt.Errorf("gridftp: block [%d,+%d) overflows", off, length)
	}
	if length == 0 {
		return flags, off, nil, nil
	}
	if cap(*buf) < length {
		*buf = make([]byte, length)
	}
	payload = (*buf)[:length]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("gridftp: truncated block payload: %w", err)
	}
	return flags, off, payload, nil
}

// send writes data channel idx's round-robin share of blocks, extents of
// data, then EOD. progress, when not nil, counts the bytes sent.
func send(w io.Writer, data []byte, blocks []Range, idx, streams int, progress *atomic.Int64) error {
	for i := idx; i < len(blocks); i += streams {
		r := blocks[i]
		if err := writeBlock(w, 0, r.Off, data[r.Off:r.End()]); err != nil {
			return err
		}
		if progress != nil {
			progress.Add(r.Len)
		}
	}
	return writeEOD(w)
}

// sink is the receiving end of a transfer, shared by its parallel data
// channels: where landed blocks go and the restart-marker ledger of them.
// A client's download keeps one across its attempts; the server keeps one
// per upload, its partial, until the store takes the file.
type sink struct {
	mu     sync.Mutex
	size   int64       // -1 until known
	dst    io.WriterAt // nil assembles the file into buf
	buf    []byte
	ledger Ledger
	closed bool  // no block lands any more
	err    error // why: dst refused a block; nil when the store took buf
}

func newSink(dst io.WriterAt) *sink { return &sink{size: -1, dst: dst} }

func (s *sink) setSize(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.size < 0 {
		s.size = n
		if s.dst == nil {
			s.buf = make([]byte, n)
		}
	}
}

// receive lands one data channel's blocks until EOD. progress, when not
// nil, counts the bytes landed.
func (s *sink) receive(r io.Reader, progress *atomic.Int64) error {
	var buf []byte // this channel's block buffer, grown by readBlock
	for {
		flags, off, payload, err := readBlock(r, &buf)
		if err != nil {
			return err
		}
		if flags&flagEOD != 0 {
			return nil
		}
		if err := s.land(off, payload); err != nil {
			return err
		}
		if progress != nil {
			progress.Add(int64(len(payload)))
		}
	}
}

// land writes one block at its offset and records it in the ledger. Once
// the sink is closed it writes nothing: it returns the refusal, or drops a
// late block the store's file must not see.
func (s *sink) land(off int64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	if off+int64(len(payload)) > s.size {
		return fmt.Errorf("gridftp: block [%d,+%d) beyond size %d", off, len(payload), s.size)
	}
	if s.dst == nil {
		copy(s.buf[off:], payload)
	} else if _, err := s.dst.WriteAt(payload, off); err != nil {
		s.closed = true
		s.err = fmt.Errorf("gridftp: write block [%d,+%d): %w", off, len(payload), err)
		return s.err
	}
	s.ledger.Add(off, int64(len(payload)))
	return nil
}

// commit closes the sink and hands its buffer to the store, uncopied.
// Channels of this attempt or an abandoned one may still be attached; once
// closed, nothing they send reaches the stored file.
func (s *sink) commit() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.buf
}
