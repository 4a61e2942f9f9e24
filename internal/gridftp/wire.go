package gridftp

import (
	"encoding/binary"
	"fmt"
	"io"
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

// parseBlockHeader validates a raw block header and returns its fields.
func parseBlockHeader(hdr [blockHdrSize]byte) (flags byte, off int64, length int, err error) {
	flags = hdr[0]
	off = int64(binary.BigEndian.Uint64(hdr[1:9]))
	length = int(binary.BigEndian.Uint32(hdr[9:13]))
	if off < 0 {
		return 0, 0, 0, fmt.Errorf("gridftp: negative block offset %d", off)
	}
	if length > MaxBlock {
		return 0, 0, 0, fmt.Errorf("gridftp: block length %d exceeds max %d", length, MaxBlock)
	}
	if off+int64(length) < 0 {
		return 0, 0, 0, fmt.Errorf("gridftp: block [%d,+%d) overflows", off, length)
	}
	return flags, off, length, nil
}

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
	flags, off, length, err := parseBlockHeader(hdr)
	if err != nil {
		return 0, 0, nil, err
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
