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
// and the server's message. WriteFrame and ReadFrame are its codec, Ask,
// Request, Call and ReadReply its client side, ServeSession and PutStatus
// its server side. OnSession is the kept-session discipline Request runs on,
// which GASS's own byte wire shares.

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

// frameChunk is the most ReadN allocates ahead of the bytes that have
// arrived: a header alone cannot make a reader allocate what it announces.
const frameChunk = 64 << 10

// ReadFrame reads a length-prefixed buffer, rejecting frames over max
// bytes (DefaultMaxFrame if max <= 0), with ReadN.
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
	body, err := ReadN(r, int(n))
	if err != nil {
		return nil, err
	}
	return FromBytes(body), nil
}

// ReadN reads the n bytes a header announced into a new slice. Over
// frameChunk bytes, the slice doubles as its bytes arrive, so a peer that
// announces more than it sends costs at most frameChunk past what it sent.
// A stream that ends inside the n bytes is io.ErrUnexpectedEOF, one that
// ends before them io.EOF.
func ReadN(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, min(n, frameChunk))
	for got := 0; ; {
		m, err := io.ReadFull(r, body[got:])
		if got += m; err != nil {
			if got > 0 && err == io.EOF { //nolint:errorlint // ReadFull returns it bare
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got == n {
			return body, nil
		}
		grown := make([]byte, min(2*len(body), n))
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

// OnSession runs one exchange on a kept session: a connection that has
// carried an earlier exchange and waits in table under key. With none idle,
// dial opens a new one (and, say, authenticates it). exchange writes a
// request on c and reads its reply; it reports whether any byte of the reply
// arrived and whether c may carry the next request. Such a session is kept
// under key again, or closed when the key already holds its idle limit; any
// other is closed. A nil table keeps nothing, so every call dials and closes
// its own connection.
//
// The retry rule: an exchange that fails on a reused session before any byte
// of its reply arrives runs once more, on a new session, and a failure on a
// new session is returned. A daemon that stops through its Close ends a
// session only between requests (transport.Bound.Session), so it never acted
// on such a request.
//
// A reused session carries its new caller's trace context as baggage, for a
// daemon that adopts the baggage per request.
func OnSession(env transport.Env, table *transport.Sessions, key any, dial func() (transport.Conn, error), exchange func(c transport.Conn) (replied, keep bool, err error)) error {
	if c := table.Take(key); c != nil {
		obs.SetBaggage(c, obs.CtxOf(env))
		replied, keep, err := exchange(c)
		if err == nil || replied {
			keepOrClose(env, table, key, c, keep)
			return err
		}
		_ = c.Close(env)
	}
	c, err := dial()
	if err != nil {
		return err
	}
	_, keep, err := exchange(c)
	keepOrClose(env, table, key, c, keep)
	return err
}

// keepOrClose files session c as idle under key when keep holds and the
// table has room, and closes it otherwise.
func keepOrClose(env transport.Env, table *transport.Sessions, key any, c transport.Conn, keep bool) {
	if !keep || !table.Keep(key, c) {
		_ = c.Close(env)
	}
}

// Request is one control exchange, Call's, with the daemon at addr on a
// session kept by OnSession. A reply or a well-formed refusal leaves the
// session fit for the next request; a refusal comes back as a *StatusError
// that names addr.
func Request(env transport.Env, table *transport.Sessions, key any, addr string, dial func() (transport.Conn, error), req *Buffer) (resp *Buffer, err error) {
	err = OnSession(env, table, key, dial, func(c transport.Conn) (replied, keep bool, err error) {
		st := transport.Stream{Env: env, Conn: c}
		if err := WriteFrame(st, req); err != nil {
			return false, false, err
		}
		r := &replyReader{st: st}
		resp, err = ReadReply(r)
		var se *StatusError
		if errors.As(err, &se) {
			se.Addr = addr
		}
		return r.got, err == nil || se != nil && !se.Malformed, err
	})
	return resp, err
}

// askKey names the sessions Ask may reuse: from which host, to which daemon.
type askKey struct{ host, addr string }

// Ask is Request with the daemon at addr on a session kept per (caller host,
// addr) in the table of env's network, dialed plainly; a dial failure reads
// "<pkg>: dial <addr>: …".
func Ask(env transport.Env, pkg, addr string, req *Buffer) (*Buffer, error) {
	return Request(env, transport.SessionsOf(env), askKey{env.Hostname(), addr}, addr, func() (transport.Conn, error) {
		c, err := env.Dial(addr)
		if err != nil {
			return nil, fmt.Errorf("%s: dial %s: %w", pkg, addr, err)
		}
		return c, nil
	}, req)
}

// ServeSession serves c as a session of the daemon d
// (transport.Bound.Session): each request frame's op and fields go to serve,
// with the caller's trace context adopted from the connection's baggage, and
// the reply serve writes goes back. The session ends at EOF, at Close, or on
// a frame too short for an op, which is refused as "<pkg>: malformed
// request" first.
func ServeSession(env transport.Env, d *transport.Bound, c transport.Conn, pkg string, serve func(env transport.Env, op int32, req, resp *Buffer)) {
	st := transport.Stream{Env: env, Conn: c}
	var req *Buffer
	d.Session(env, c, func() (err error) {
		req, err = ReadFrame(st, 0)
		return err
	}, func() bool {
		obs.SetCtx(env, obs.BaggageOf(c))
		resp := NewBuffer()
		op, err := req.GetInt32()
		if err != nil {
			PutStatus(resp, fmt.Errorf("%s: malformed request", pkg))
		} else {
			serve(env, op, req, resp)
		}
		return WriteFrame(st, resp) == nil && err == nil
	})
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
