// Package gridftp is a GridFTP-style bulk data-movement service: the
// parallel-stream, restartable counterpart to the simple GASS file service.
// It implements the techniques the GridFTP protocol introduced for wide-area
// transfers — N parallel data channels so aggregate throughput is not capped
// by one congestion-limited TCP stream, extended-block framing where every
// block carries its file offset, restart markers (a ledger of received
// ranges) so an interrupted transfer resumes instead of starting over.
//
// Control and data channels are ordinary transport streams dialed through a
// proxy.Dialer, so transfers traverse the paper's Nexus Proxy firewall relay
// unchanged: a server behind the firewall listens via the proxy (passive
// mode), and every data channel becomes a relayed stream through the outer
// server. Combined with simnet's TCP-Reno flow model, the parallel-stream
// throughput recovery that motivated GridFTP is directly measurable (see
// bench.RunTransfer).
//
// Files are backed by the same gass.Store, and URLs use the
// x-gridftp://host:port/path scheme; gass.MaxFileSize bounds transfers.
package gridftp

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"nxcluster/internal/gass"
	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

// Scheme prefixes gridftp URLs.
const Scheme = "x-gridftp://"

// DefaultBlockSize is the block granularity for transfers and restart
// accounting.
const DefaultBlockSize = 64 << 10

// DefaultStreams is the client's default parallel data-channel count.
const DefaultStreams = 4

// IsURL reports whether url carries the gridftp scheme.
func IsURL(url string) bool { return strings.HasPrefix(url, Scheme) }

// ParseURL splits an x-gridftp URL into transport address and path.
func ParseURL(url string) (hostport, path string, err error) {
	if !IsURL(url) {
		return "", "", fmt.Errorf("gridftp: URL %q: missing %s scheme", url, Scheme)
	}
	rest := url[len(Scheme):]
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return "", "", fmt.Errorf("gridftp: URL %q: missing path", url)
	}
	return rest[:i], rest[i:], nil
}

// URL builds an x-gridftp URL.
func URL(hostport, path string) string {
	if !strings.HasPrefix(path, "/") {
		path = "/" + path
	}
	return Scheme + hostport + path
}

// Control-channel ops (nexus-framed).
const (
	opRetr = int32(1) // download: path, have-ledger, streams
	opStor = int32(2) // upload: path, size, streams, uploadID
)

// xfer is one attempt in flight, under the ID its reply named: serve runs
// data channel idx, and the last channel to finish retires it.
type xfer struct {
	streams   int
	remaining int // data channels yet to finish
	serve     func(env transport.Env, st transport.Stream, idx int)
}

// partKey names an upload's partial: the client's upload ID and the path.
type partKey struct{ id, path string }

// Server serves a gass.Store over the gridftp protocol on two listeners: a
// control port and a data port (control port + 1 when listening directly).
type Server struct {
	// Bound holds the control listener, then the data listener.
	transport.Bound
	// Store backs the served files.
	Store *gass.Store
	// Dialer provides firewall traversal: listeners bind through it
	// (passive mode via the Nexus Proxy when enabled).
	Dialer proxy.Dialer

	mu     sync.Mutex
	nextID int
	xfers  map[string]*xfer
	// parts holds each upload's receive state across its attempts: it IS
	// the restart marker the server returns on resume.
	parts map[partKey]*sink
	dataL transport.Listener
}

// NewServer wraps a store.
func NewServer(store *gass.Store, dialer proxy.Dialer) *Server {
	return &Server{
		Store:  store,
		Dialer: dialer,
		xfers:  make(map[string]*xfer),
		parts:  make(map[partKey]*sink),
	}
}

// Serve binds the control and data listeners and accepts until closed; it
// blocks its process. ready (optional) receives the control address.
func (s *Server) Serve(env transport.Env, port int, ready func(addr string)) error {
	ctrl, err := s.Dialer.Listen(env, port)
	if err != nil {
		return fmt.Errorf("gridftp: listen control: %w", err)
	}
	dataPort := 0
	if port != 0 {
		dataPort = port + 1
	}
	data, err := s.Dialer.Listen(env, dataPort)
	if err != nil {
		_ = ctrl.Close(env)
		return fmt.Errorf("gridftp: listen data: %w", err)
	}
	s.Hold(ctrl, data)
	s.dataL = data
	if ready != nil {
		ready(ctrl.Addr())
	}
	env.SpawnService("gridftp:data-accept", func(e transport.Env) {
		transport.Serve(e, data, "gridftp:data", s.handleData)
	})
	transport.Serve(env, ctrl, "gridftp:ctrl", s.handleCtrl)
	return nil
}

// handleCtrl serves one control connection: a single request frame, a reply
// frame, and — for uploads — a final completion frame once the data movement
// ends. An upload that got as far as its reply writes both frames itself.
func (s *Server) handleCtrl(env transport.Env, c transport.Conn) {
	defer c.Close(env)
	st := transport.Stream{Env: env, Conn: c}
	req, err := nexus.ReadFrame(st, 0)
	if err != nil {
		return
	}
	op, err := req.GetInt32()
	if err != nil {
		return
	}
	resp := nexus.NewBuffer()
	switch op {
	case opRetr:
		s.handleRetr(env, st, req, resp)
	case opStor:
		if s.handleStor(env, st, req, resp) {
			return
		}
	default:
		nexus.PutStatus(resp, fmt.Errorf("gridftp: unknown op %d", op))
	}
	_ = nexus.WriteFrame(st, resp)
}

// register enters an attempt's data channels in the registry and returns
// the transfer ID for its reply: prefix "r" for RETR, "s" for STOR.
func (s *Server) register(prefix string, streams int, serve func(transport.Env, transport.Stream, int)) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("%s%d", prefix, s.nextID)
	s.xfers[id] = &xfer{streams: streams, remaining: streams, serve: serve}
	return id
}

// handleRetr registers a download and replies with its transfer ID and data
// address; the client's data channels do the rest.
func (s *Server) handleRetr(env transport.Env, st transport.Stream, req, resp *nexus.Buffer) {
	path, e1 := req.GetString()
	haveBytes, e2 := req.GetBytes()
	streams, e3 := req.GetInt32()
	if e1 != nil || e2 != nil || e3 != nil || streams < 1 || streams > 64 {
		nexus.PutStatus(resp, fmt.Errorf("gridftp: malformed RETR"))
		return
	}
	have, err := DecodeLedger(haveBytes)
	if err != nil {
		nexus.PutStatus(resp, err)
		return
	}
	// The store's own slice for the file as it is now: shared and read-only,
	// a later write replaces the store's entry and leaves this one intact.
	data, err := s.Store.View(path)
	if err != nil {
		nexus.PutStatus(resp, err)
		return
	}
	// The block list is exactly what the client does not yet have: resume
	// restarts mid-file instead of resending delivered ranges.
	blocks := chopRanges(have.Missing(int64(len(data))), DefaultBlockSize)
	id := s.register("r", int(streams), func(_ transport.Env, st transport.Stream, idx int) {
		_ = send(st, data, blocks, idx, int(streams), nil)
	})
	if o := obs.From(env); o != nil {
		o.Emit(env.Now(), "gridftp", "retr", env.Hostname(),
			obs.Str("path", path), obs.Int("bytes", int64(len(data))), obs.Int("streams", int64(streams)))
	}
	resp.PutBool(true)
	resp.PutInt64(int64(len(data)))
	resp.PutString(id)
	resp.PutString(s.dataL.Addr())
}

// handleStor registers an upload attempt, replying with the restart ledger
// of any prior attempt, then waits for the data channels and reports the
// final status on the control connection. It reports whether it wrote the
// reply; a refused request leaves its status in resp for the caller.
func (s *Server) handleStor(env transport.Env, st transport.Stream, req, resp *nexus.Buffer) (replied bool) {
	path, e1 := req.GetString()
	size, e2 := req.GetInt64()
	streams, e3 := req.GetInt32()
	uploadID, e4 := req.GetString()
	if e1 != nil || e2 != nil || e3 != nil || e4 != nil || size < 0 || streams < 1 || streams > 64 {
		nexus.PutStatus(resp, fmt.Errorf("gridftp: malformed STOR"))
		return false
	}
	if size > gass.MaxFileSize {
		nexus.PutStatus(resp, fmt.Errorf("%w (%d bytes)", gass.ErrTooLarge, size))
		return false
	}
	key := partKey{uploadID, path}
	s.mu.Lock()
	part := s.parts[key]
	if part == nil || part.size != size {
		part = &sink{size: size, buf: make([]byte, size)}
		s.parts[key] = part
	}
	s.mu.Unlock()
	// Each channel sends one event: whether the file was whole when it ended.
	done := transport.NewQueue[bool](env)
	id := s.register("s", int(streams), func(env transport.Env, st transport.Stream, _ int) {
		err := part.receive(st, nil)
		part.mu.Lock()
		complete := err == nil && part.ledger.Complete(size)
		part.mu.Unlock()
		done.Put(env, complete)
	})
	part.mu.Lock()
	ledgerBytes := part.ledger.Encode()
	part.mu.Unlock()
	if o := obs.From(env); o != nil {
		o.Emit(env.Now(), "gridftp", "stor", env.Hostname(),
			obs.Str("path", path), obs.Int("bytes", size), obs.Int("streams", int64(streams)))
	}
	resp.PutBool(true)
	resp.PutString(id)
	resp.PutString(s.dataL.Addr())
	resp.PutBytes(ledgerBytes)
	if err := nexus.WriteFrame(st, resp); err != nil {
		return true
	}
	// Wait for the attempt to finish. An interrupted client simply abandons
	// the control connection; the partial survives for resume.
	final := nexus.NewBuffer()
	committed := false
	for i := 0; i < int(streams) && !committed; i++ {
		complete, ok := done.Get(env)
		if !ok {
			break
		}
		committed = complete
	}
	s.mu.Lock()
	delete(s.xfers, id)
	s.mu.Unlock()
	if !committed {
		part.mu.Lock()
		got := part.ledger.Bytes()
		part.mu.Unlock()
		nexus.PutStatus(final, fmt.Errorf("gridftp: upload incomplete (%d/%d bytes)", got, size))
	} else if err := s.Store.Adopt(path, part.commit()); err != nil {
		nexus.PutStatus(final, err)
	} else {
		s.mu.Lock()
		delete(s.parts, key)
		s.mu.Unlock()
		final.PutBool(true)
		final.PutInt64(size)
	}
	_ = nexus.WriteFrame(st, final)
	return true
}

// handleData serves one data channel. The channel handshake names the
// transfer and the channel index; the transfer's serve moves the blocks.
func (s *Server) handleData(env transport.Env, c transport.Conn) {
	defer c.Close(env)
	st := transport.Stream{Env: env, Conn: c}
	hs, err := nexus.ReadFrame(st, 0)
	if err != nil {
		return
	}
	id, e1 := hs.GetString()
	idx, e2 := hs.GetInt32()
	if e1 != nil || e2 != nil || idx < 0 {
		return
	}
	s.mu.Lock()
	x := s.xfers[id]
	s.mu.Unlock()
	if x == nil || int(idx) >= x.streams {
		return
	}
	x.serve(env, st, int(idx))
	s.mu.Lock()
	x.remaining--
	if x.remaining == 0 {
		delete(s.xfers, id)
	}
	s.mu.Unlock()
}

// chopRanges splits ranges into blocks of at most blockSize bytes,
// preserving order.
func chopRanges(ranges []Range, blockSize int) []Range {
	var out []Range
	for _, r := range ranges {
		for off := r.Off; off < r.End(); off += int64(blockSize) {
			n := r.End() - off
			if n > int64(blockSize) {
				n = int64(blockSize)
			}
			out = append(out, Range{Off: off, Len: n})
		}
	}
	return out
}

// errIncomplete tags transfers that ran out of resume attempts.
var errIncomplete = errors.New("gridftp: transfer incomplete")
