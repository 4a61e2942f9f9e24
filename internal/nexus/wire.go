package nexus

import (
	"encoding/binary"
	"fmt"
	"io"

	"nxcluster/internal/transport"
)

// The control-plane wire. Every control daemon behind the one open port
// (gatekeeper, allocator, Q servers, HBM, MDS, gridftp's control channel)
// speaks it: a request is one length-prefixed frame, and a reply is one
// frame that begins with a status bool — true and the op's results, or false
// and the server's message. WriteFrame and ReadFrame are its codec, Call and
// ReadReply its client side, PutStatus its server side.

// DefaultMaxFrame bounds ReadFrame when callers pass max <= 0.
const DefaultMaxFrame = 16 << 20

// WriteFrame writes a length-prefixed buffer: a 4-byte big-endian length,
// then the bytes. On a real socket that is one write, on simnet two
// segments (transport.WriteHead).
func WriteFrame(w io.Writer, b *Buffer) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(b.Len()))
	return transport.WriteHead(w, hdr[:], b.Bytes())
}

// frameChunk is the most ReadFrame allocates for a frame before its bytes
// arrive: a header alone cannot make a reader allocate what it announces.
const frameChunk = 64 << 10

// ReadFrame reads a length-prefixed buffer, rejecting frames over max
// bytes (DefaultMaxFrame if max <= 0). A frame over frameChunk is read into
// a buffer that doubles as its bytes arrive.
func ReadFrame(r io.Reader, max int) (*Buffer, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int(n) > max {
		return nil, fmt.Errorf("nexus: frame of %d bytes exceeds limit %d", n, max)
	}
	body := make([]byte, min(int(n), frameChunk))
	for got := 0; ; {
		m, err := io.ReadFull(r, body[got:])
		if got += m; err != nil {
			if got > 0 && err == io.EOF { //nolint:errorlint // ReadFull returns it bare
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got == int(n) {
			return FromBytes(body), nil
		}
		grown := make([]byte, min(2*len(body), int(n)))
		copy(grown, body)
		body = grown
	}
}

// StatusError is a reply whose status was false: the server refused the
// request. Msg is the message the server sent with it; Malformed reports
// that the message did not decode (Msg is then empty).
type StatusError struct {
	Msg       string
	Malformed bool
}

func (e *StatusError) Error() string { return e.Msg }

// Call is one control exchange on rw: write req as a frame, then read the
// reply with ReadReply.
func Call(rw io.ReadWriter, req *Buffer) (*Buffer, error) {
	if err := WriteFrame(rw, req); err != nil {
		return nil, err
	}
	return ReadReply(rw)
}

// ReadReply reads one reply frame and consumes its status bool. A true
// status returns the frame positioned at the op's results; a false one
// returns a *StatusError carrying the server's message.
func ReadReply(r io.Reader) (*Buffer, error) {
	resp, err := ReadFrame(r, 0)
	if err != nil {
		return nil, err
	}
	ok, err := resp.GetBool()
	if err != nil {
		return nil, err
	}
	if !ok {
		msg, err := resp.GetString()
		return nil, &StatusError{Msg: msg, Malformed: err != nil}
	}
	return resp, nil
}

// PutStatus writes the status a reply begins with: true for a nil err, and
// false followed by err's message otherwise.
func PutStatus(b *Buffer, err error) {
	if err != nil {
		b.PutBool(false)
		b.PutString(err.Error())
		return
	}
	b.PutBool(true)
}
