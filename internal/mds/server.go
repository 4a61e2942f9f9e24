package mds

import (
	"encoding/binary"
	"fmt"
	"io"

	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// Wire operation codes.
const (
	opAdd    = byte(1)
	opSearch = byte(2)
	opGet    = byte(3)
	opModify = byte(4)
	opDelete = byte(5)
)

// Server exposes a Directory over the transport layer, one request per
// connection.
type Server struct {
	Dir      *Directory
	listener transport.Listener
}

// NewServer wraps a directory.
func NewServer(dir *Directory) *Server { return &Server{Dir: dir} }

// Serve binds and accepts; it blocks its process.
func (s *Server) Serve(env transport.Env, port int, ready func(addr string)) error {
	l, err := env.Listen(port)
	if err != nil {
		return fmt.Errorf("mds: listen: %w", err)
	}
	s.listener = l
	if ready != nil {
		ready(l.Addr())
	}
	for {
		c, err := l.Accept(env)
		if err != nil {
			return nil
		}
		conn := c
		env.SpawnService("mds:conn", func(e transport.Env) { s.handle(e, conn) })
	}
}

// Close shuts the listener down.
func (s *Server) Close(env transport.Env) {
	if s.listener != nil {
		_ = s.listener.Close(env)
	}
}

func (s *Server) handle(env transport.Env, c transport.Conn) {
	defer c.Close(env)
	st := transport.Stream{Env: env, Conn: c}
	req, err := readFrame(st)
	if err != nil {
		return
	}
	op, err := req.GetInt32()
	if err != nil {
		return
	}
	resp := nexus.NewBuffer()
	switch byte(op) {
	case opAdd, opModify:
		dn, attrs, err := decodeEntryBody(req)
		if err == nil {
			if byte(op) == opAdd {
				err = s.Dir.Add(dn, attrs)
			} else {
				err = s.Dir.Modify(dn, attrs)
			}
		}
		writeStatus(resp, err)
	case opDelete:
		dn, err := req.GetString()
		if err == nil {
			err = s.Dir.Delete(dn)
		}
		writeStatus(resp, err)
	case opGet:
		dn, err := req.GetString()
		var e *Entry
		if err == nil {
			e, err = s.Dir.Get(dn)
		}
		writeStatus(resp, err)
		if err == nil {
			encodeEntry(resp, e)
		}
	case opSearch:
		base, err1 := req.GetString()
		fstr, err2 := req.GetString()
		var f Filter
		err := err1
		if err == nil {
			err = err2
		}
		if err == nil && fstr != "" {
			f, err = ParseFilter(fstr)
		}
		var entries []*Entry
		if err == nil {
			entries, err = s.Dir.Search(base, f)
		}
		writeStatus(resp, err)
		if err == nil {
			resp.PutInt32(int32(len(entries)))
			for _, e := range entries {
				encodeEntry(resp, e)
			}
		}
	default:
		writeStatus(resp, fmt.Errorf("mds: unknown op %d", op))
	}
	_ = writeFrame(st, resp)
}

func writeStatus(b *nexus.Buffer, err error) {
	if err != nil {
		b.PutBool(false)
		b.PutString(err.Error())
		return
	}
	b.PutBool(true)
}

func encodeEntry(b *nexus.Buffer, e *Entry) {
	b.PutString(e.DN)
	b.PutInt32(int32(len(e.Attrs)))
	for k, vs := range e.Attrs {
		b.PutString(k)
		b.PutInt32(int32(len(vs)))
		for _, v := range vs {
			b.PutString(v)
		}
	}
}

func decodeEntry(b *nexus.Buffer) (*Entry, error) {
	dn, err := b.GetString()
	if err != nil {
		return nil, err
	}
	n, err := b.GetInt32()
	if err != nil {
		return nil, err
	}
	e := &Entry{DN: dn, Attrs: make(map[string][]string, n)}
	for i := int32(0); i < n; i++ {
		k, err := b.GetString()
		if err != nil {
			return nil, err
		}
		m, err := b.GetInt32()
		if err != nil {
			return nil, err
		}
		vs := make([]string, m)
		for j := range vs {
			if vs[j], err = b.GetString(); err != nil {
				return nil, err
			}
		}
		e.Attrs[k] = vs
	}
	return e, nil
}

func decodeEntryBody(b *nexus.Buffer) (string, map[string][]string, error) {
	e, err := decodeEntry(b)
	if err != nil {
		return "", nil, err
	}
	return e.DN, e.Attrs, nil
}

// readFrame reads a length-prefixed buffer.
func readFrame(st transport.Stream) (*nexus.Buffer, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(st, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > 16<<20 {
		return nil, fmt.Errorf("mds: frame too large (%d)", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(st, body); err != nil {
		return nil, err
	}
	return nexus.FromBytes(body), nil
}

// writeFrame writes a length-prefixed buffer.
func writeFrame(st transport.Stream, b *nexus.Buffer) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(b.Len()))
	if _, err := st.Write(hdr[:]); err != nil {
		return err
	}
	_, err := st.Write(b.Bytes())
	return err
}

// Client talks to a remote MDS server.
type Client struct {
	// Addr is the server's "host:port".
	Addr string
}

func (c Client) roundTrip(env transport.Env, req *nexus.Buffer) (*nexus.Buffer, error) {
	conn, err := env.Dial(c.Addr)
	if err != nil {
		return nil, fmt.Errorf("mds: dial %s: %w", c.Addr, err)
	}
	defer conn.Close(env)
	st := transport.Stream{Env: env, Conn: conn}
	if err := writeFrame(st, req); err != nil {
		return nil, err
	}
	resp, err := readFrame(st)
	if err != nil {
		return nil, err
	}
	ok, err := resp.GetBool()
	if err != nil {
		return nil, err
	}
	if !ok {
		msg, _ := resp.GetString()
		return nil, fmt.Errorf("mds: server error: %s", msg)
	}
	return resp, nil
}

// Add publishes an entry.
func (c Client) Add(env transport.Env, dn string, attrs map[string][]string) error {
	req := nexus.NewBuffer()
	req.PutInt32(int32(opAdd))
	encodeEntry(req, &Entry{DN: dn, Attrs: attrs})
	_, err := c.roundTrip(env, req)
	return err
}

// Modify updates an entry's attributes.
func (c Client) Modify(env transport.Env, dn string, attrs map[string][]string) error {
	req := nexus.NewBuffer()
	req.PutInt32(int32(opModify))
	encodeEntry(req, &Entry{DN: dn, Attrs: attrs})
	_, err := c.roundTrip(env, req)
	return err
}

// Delete removes an entry.
func (c Client) Delete(env transport.Env, dn string) error {
	req := nexus.NewBuffer()
	req.PutInt32(int32(opDelete))
	req.PutString(dn)
	_, err := c.roundTrip(env, req)
	return err
}

// Get fetches one entry.
func (c Client) Get(env transport.Env, dn string) (*Entry, error) {
	req := nexus.NewBuffer()
	req.PutInt32(int32(opGet))
	req.PutString(dn)
	resp, err := c.roundTrip(env, req)
	if err != nil {
		return nil, err
	}
	return decodeEntry(resp)
}

// Search queries entries under base with an optional filter string.
func (c Client) Search(env transport.Env, base, filter string) ([]*Entry, error) {
	req := nexus.NewBuffer()
	req.PutInt32(int32(opSearch))
	req.PutString(base)
	req.PutString(filter)
	resp, err := c.roundTrip(env, req)
	if err != nil {
		return nil, err
	}
	n, err := resp.GetInt32()
	if err != nil {
		return nil, err
	}
	out := make([]*Entry, 0, n)
	for i := int32(0); i < n; i++ {
		e, err := decodeEntry(resp)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}
