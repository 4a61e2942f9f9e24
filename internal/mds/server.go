package mds

import (
	"errors"
	"fmt"

	"nxcluster/internal/nexus"
	"nxcluster/internal/transport"
)

// opSearch is the one wire operation: the publisher writes the Directory
// in-process, so remote clients only search it.
const opSearch = byte(2)

// Server exposes a Directory over the transport layer; a client's
// searches share one kept session (nexus.ServeSession).
type Server struct {
	transport.Bound
	Dir *Directory
}

// NewServer wraps a directory.
func NewServer(dir *Directory) *Server { return &Server{Dir: dir} }

// Serve binds and accepts; it blocks its process.
func (s *Server) Serve(env transport.Env, port int, ready func(addr string)) error {
	return s.Listen(env, port, "mds", "mds:conn", ready, s.handle)
}

// handle serves one directory session (nexus.ServeSession).
func (s *Server) handle(env transport.Env, c transport.Conn) {
	nexus.ServeSession(env, &s.Bound, c, "mds", s.serve)
}

// serve answers one directory request.
func (s *Server) serve(env transport.Env, op int32, req, resp *nexus.Buffer) {
	if byte(op) != opSearch {
		nexus.PutStatus(resp, fmt.Errorf("mds: unknown op %d", op))
		return
	}
	base, err := req.GetString()
	var fstr string
	if err == nil {
		fstr, err = req.GetString()
	}
	var f Filter
	if err == nil && fstr != "" {
		f, err = ParseFilter(fstr)
	}
	var entries []*Entry
	if err == nil {
		entries, err = s.Dir.Search(base, f)
	}
	nexus.PutStatus(resp, err)
	if err == nil {
		resp.PutInt32(int32(len(entries)))
		for _, e := range entries {
			encodeEntry(resp, e)
		}
	}
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

// errMalformed refuses a count the frame cannot hold: every attribute and
// every value costs at least its 4-byte length prefix, so a count over
// Remaining()/4 is a lie and must not size an allocation.
var errMalformed = errors.New("mds: malformed entry")

func decodeEntry(b *nexus.Buffer) (*Entry, error) {
	dn, err := b.GetString()
	if err != nil {
		return nil, err
	}
	n, err := b.GetInt32()
	if err != nil {
		return nil, err
	}
	if n < 0 || int(n) > b.Remaining()/4 {
		return nil, errMalformed
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
		if m < 0 || int(m) > b.Remaining()/4 {
			return nil, errMalformed
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

// Client talks to a remote MDS server.
type Client struct {
	// Addr is the server's "host:port".
	Addr string
}

// Search queries entries under base with an optional filter string, on a
// session kept per caller host (nexus.Ask). A refusal reads "mds: server
// error: " and the *nexus.StatusError.
func (c Client) Search(env transport.Env, base, filter string) ([]*Entry, error) {
	req := nexus.NewBuffer()
	req.PutInt32(int32(opSearch))
	req.PutString(base)
	req.PutString(filter)
	resp, err := nexus.Ask(env, "mds", c.Addr, req)
	var se *nexus.StatusError
	if errors.As(err, &se) {
		return nil, fmt.Errorf("mds: server error: %w", se)
	}
	if err != nil {
		return nil, err
	}
	n, err := resp.GetInt32()
	if err != nil {
		return nil, err
	}
	// An entry costs at least its DN's length prefix and its attribute count.
	if n < 0 || int(n) > resp.Remaining()/8 {
		return nil, fmt.Errorf("mds: malformed search reply: %d entries in %d bytes", n, resp.Remaining())
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
