// Package nexus reimplements the communication abstractions of the Globus
// Nexus library that the paper's system is built on: endpoints that register
// handlers, startpoints attached to remote endpoints, and remote service
// requests (RSRs) carrying typed buffers. This is the layer the paper
// patched — startpoint attachment goes through NXProxyConnect and endpoint
// addresses advertise the proxy's public port when the Nexus Proxy is
// configured (via the equivalent of the NEXUS_PROXY_OUTER_SERVER /
// NEXUS_PROXY_INNER_SERVER environment variables).
package nexus

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrBufferShort is returned by Get operations that run past the end of the
// buffer.
var ErrBufferShort = errors.New("nexus: buffer too short")

// Buffer is a typed serialization buffer for remote service requests,
// mirroring nexus_put_*/nexus_get_* . Puts append; Gets consume from a read
// cursor. All encoding is big-endian.
type Buffer struct {
	data []byte
	off  int
}

// NewBuffer creates an empty buffer.
func NewBuffer() *Buffer { return &Buffer{} }

// FromBytes wraps received bytes for reading.
func FromBytes(b []byte) *Buffer { return &Buffer{data: b} }

// Bytes returns the full encoded contents.
func (b *Buffer) Bytes() []byte { return b.data }

// Len returns the total encoded length.
func (b *Buffer) Len() int { return len(b.data) }

// Remaining returns the unread byte count.
func (b *Buffer) Remaining() int { return len(b.data) - b.off }

// Reset clears contents and cursor.
func (b *Buffer) Reset() { b.data = b.data[:0]; b.off = 0 }

// Rewind moves the read cursor back to the start.
func (b *Buffer) Rewind() { b.off = 0 }

// PutInt32 appends a 32-bit integer.
func (b *Buffer) PutInt32(v int32) {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(v))
	b.data = append(b.data, tmp[:]...)
}

// PutInt64 appends a 64-bit integer.
func (b *Buffer) PutInt64(v int64) {
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(v))
	b.data = append(b.data, tmp[:]...)
}

// PutBool appends a boolean as one byte.
func (b *Buffer) PutBool(v bool) {
	if v {
		b.data = append(b.data, 1)
	} else {
		b.data = append(b.data, 0)
	}
}

// PutBytes appends a length-prefixed byte slice.
func (b *Buffer) PutBytes(v []byte) {
	b.PutInt32(int32(len(v)))
	b.data = append(b.data, v...)
}

// PutString appends a length-prefixed string.
func (b *Buffer) PutString(v string) { b.PutBytes([]byte(v)) }

func (b *Buffer) take(n int) ([]byte, error) {
	if b.Remaining() < n {
		return nil, fmt.Errorf("%w: need %d, have %d", ErrBufferShort, n, b.Remaining())
	}
	s := b.data[b.off : b.off+n]
	b.off += n
	return s, nil
}

// GetInt32 consumes a 32-bit integer.
func (b *Buffer) GetInt32() (int32, error) {
	s, err := b.take(4)
	if err != nil {
		return 0, err
	}
	return int32(binary.BigEndian.Uint32(s)), nil
}

// GetInt64 consumes a 64-bit integer.
func (b *Buffer) GetInt64() (int64, error) {
	s, err := b.take(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(s)), nil
}

// GetBool consumes a boolean.
func (b *Buffer) GetBool() (bool, error) {
	s, err := b.take(1)
	if err != nil {
		return false, err
	}
	return s[0] != 0, nil
}

// GetBytes consumes a length-prefixed byte slice; the returned slice aliases
// the buffer.
func (b *Buffer) GetBytes() ([]byte, error) {
	n, err := b.GetInt32()
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("%w: negative length", ErrBufferShort)
	}
	return b.take(int(n))
}

// GetString consumes a length-prefixed string.
func (b *Buffer) GetString() (string, error) {
	s, err := b.GetBytes()
	if err != nil {
		return "", err
	}
	return string(s), nil
}
