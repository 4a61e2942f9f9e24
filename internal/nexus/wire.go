package nexus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// The control-plane wire. Every control daemon behind the one open port
// (gatekeeper, allocator, Q servers, HBM, MDS, gridftp's control channel)
// speaks it: a request is one length-prefixed frame, and a reply is one
// frame that begins with a status bool — true and the op's results, or false
// and the server's message. WriteFrame and ReadFrame are its codec, Call,
// Request and ReadReply its client side, PutStatus its server side.

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
// request. Msg is the message the server sent with it, which names the
// server's package; Malformed reports that the message did not decode (Msg
// is then empty). Addr is the server's address when Request made the call.
type StatusError struct {
	Msg       string
	Malformed bool
	Addr      string
}

func (e *StatusError) Error() string {
	if e.Addr == "" {
		return e.Msg
	}
	return e.Addr + ": " + e.Msg
}

// Call is one control exchange on rw: write req as a frame, then read the
// reply with ReadReply.
func Call(rw io.ReadWriter, req *Buffer) (*Buffer, error) {
	if err := WriteFrame(rw, req); err != nil {
		return nil, err
	}
	return ReadReply(rw)
}

// Request is one control exchange with the daemon at addr on a kept
// session: a connection that has carried an earlier exchange and waits in
// table under key. With none idle, dial opens a new one (and, say,
// authenticates it). After a reply, or a well-formed refusal, the session
// is kept under key again, or closed when the key already holds its idle
// limit; after any other error it is closed. A nil table keeps nothing, so
// every call dials and closes its own connection.
//
// The retry rule: a request that fails on a reused session before any byte
// of its reply arrives is sent once more, on a new session, and a failure
// on a new session is returned. A daemon that stops through its Close ends
// a session only between requests (transport.Bound.Session), so it never
// acted on such a request.
//
// A reused session carries its new caller's trace context as baggage, for a
// daemon that adopts the baggage per request. A refusal comes back as a
// *StatusError that names addr.
func Request(env transport.Env, table *transport.Sessions, key any, addr string, dial func() (transport.Conn, error), req *Buffer) (*Buffer, error) {
	if c := table.Take(key); c != nil {
		obs.SetBaggage(c, obs.CtxOf(env))
		resp, replied, err := exchange(env, c, req)
		if err == nil || replied {
			return keepOrClose(env, table, key, c, addr, resp, err)
		}
		_ = c.Close(env)
	}
	c, err := dial()
	if err != nil {
		return nil, err
	}
	resp, _, err := exchange(env, c, req)
	return keepOrClose(env, table, key, c, addr, resp, err)
}

// exchange is Call on the session c; replied reports whether any byte of
// the reply arrived.
func exchange(env transport.Env, c transport.Conn, req *Buffer) (resp *Buffer, replied bool, err error) {
	st := transport.Stream{Env: env, Conn: c}
	if err := WriteFrame(st, req); err != nil {
		return nil, false, err
	}
	r := &replyReader{st: st}
	resp, err = ReadReply(r)
	return resp, r.got, err
}

// keepOrClose ends a call on session c: a nil err or a well-formed refusal
// keeps it idle under key (or closes it when the table is full), anything
// else closes it. A refusal is named after addr.
func keepOrClose(env transport.Env, table *transport.Sessions, key any, c transport.Conn, addr string, resp *Buffer, err error) (*Buffer, error) {
	var se *StatusError
	refused := errors.As(err, &se) && !se.Malformed
	if (err != nil && !refused) || !table.Keep(key, c) {
		_ = c.Close(env)
	}
	if se != nil {
		se.Addr = addr
	}
	return resp, err
}

// replyReader reads a session's reply and notes whether a byte arrived.
type replyReader struct {
	st  transport.Stream
	got bool
}

func (r *replyReader) Read(b []byte) (int, error) {
	n, err := r.st.Read(b)
	if n > 0 {
		r.got = true
	}
	return n, err
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
