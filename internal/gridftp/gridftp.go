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

// retrXfer is one active download: the store's own slice for the file as it
// was at RETR time (shared, read-only; a later write replaces the store's
// entry and leaves this one intact) plus the block list each data channel
// serves round-robin.
type retrXfer struct {
	data      []byte
	blocks    []Range
	streams   int
	remaining int // data channels yet to finish
}

// storPartial is the server-side state of an upload, keyed by the client's
// uploadID. It persists across interrupted attempts — it IS the restart
// marker the server returns on resume. committed (under Server.mu) is set
// when the store takes buf as the file: from then on buf is read-only, and a
// data channel still attached to the partial drops whatever it receives.
type storPartial struct {
	path      string
	size      int64
	buf       []byte
	ledger    Ledger
	committed bool
}

// storXfer is one upload attempt in flight.
type storXfer struct {
	partial   *storPartial
	streams   int
	remaining int
	done      transport.Queue[bool] // true once the ledger completes
}

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
	// BlockSize is the server-side block granularity for downloads
	// (default DefaultBlockSize).
	BlockSize int

	mu     sync.Mutex
	nextID int
	retrs  map[string]*retrXfer
	stors  map[string]*storXfer
	parts  map[string]*storPartial
	dataL  transport.Listener
}

// NewServer wraps a store.
func NewServer(store *gass.Store, dialer proxy.Dialer) *Server {
	return &Server{
		Store:  store,
		Dialer: dialer,
		retrs:  make(map[string]*retrXfer),
		stors:  make(map[string]*storXfer),
		parts:  make(map[string]*storPartial),
	}
}

func (s *Server) blockSize() int {
	if s.BlockSize > 0 {
		return s.BlockSize
	}
	return DefaultBlockSize
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
// ends.
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
		s.handleStor(env, st, req, resp)
	default:
		nexus.PutStatus(resp, fmt.Errorf("gridftp: unknown op %d", op))
	}
	_ = nexus.WriteFrame(st, resp)
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
	data, err := s.Store.View(path)
	if err != nil {
		nexus.PutStatus(resp, err)
		return
	}
	// The block list is exactly what the client does not yet have: resume
	// restarts mid-file instead of resending delivered ranges.
	blocks := chopRanges(have.Missing(int64(len(data))), s.blockSize())
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("r%d", s.nextID)
	s.retrs[id] = &retrXfer{data: data, blocks: blocks, streams: int(streams), remaining: int(streams)}
	s.mu.Unlock()
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
// final status on the control connection.
func (s *Server) handleStor(env transport.Env, st transport.Stream, req, resp *nexus.Buffer) {
	path, e1 := req.GetString()
	size, e2 := req.GetInt64()
	streams, e3 := req.GetInt32()
	uploadID, e4 := req.GetString()
	if e1 != nil || e2 != nil || e3 != nil || e4 != nil || size < 0 || streams < 1 || streams > 64 {
		nexus.PutStatus(resp, fmt.Errorf("gridftp: malformed STOR"))
		return
	}
	if size > gass.MaxFileSize {
		nexus.PutStatus(resp, fmt.Errorf("%w (%d bytes)", gass.ErrTooLarge, size))
		return
	}
	s.mu.Lock()
	part := s.parts[uploadID]
	if part == nil || part.size != size || part.path != path {
		part = &storPartial{path: path, size: size, buf: make([]byte, size)}
		s.parts[uploadID] = part
	}
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	x := &storXfer{partial: part, streams: int(streams), remaining: int(streams),
		done: transport.NewQueue[bool](env)}
	s.stors[id] = x
	ledgerBytes := part.ledger.Encode()
	s.mu.Unlock()
	if o := obs.From(env); o != nil {
		o.Emit(env.Now(), "gridftp", "stor", env.Hostname(),
			obs.Str("path", path), obs.Int("bytes", size), obs.Int("streams", int64(streams)))
	}
	resp.PutBool(true)
	resp.PutString(id)
	resp.PutString(s.dataL.Addr())
	resp.PutBytes(ledgerBytes)
	if err := nexus.WriteFrame(st, resp); err != nil {
		return
	}
	// Wait for the attempt to finish: every channel sends one event, plus a
	// completion event if the ledger filled. An interrupted client simply
	// abandons the control connection; the partial survives for resume.
	final := nexus.NewBuffer()
	committed := false
	for i := 0; i < x.streams; i++ {
		complete, ok := x.done.Get(env)
		if !ok {
			break
		}
		if complete {
			committed = true
			break
		}
	}
	s.mu.Lock()
	delete(s.stors, id)
	s.mu.Unlock()
	if committed {
		// The store takes the assembly buffer itself, no copy. Channels of
		// this attempt or of an abandoned earlier one may still be attached
		// to the partial; the flag stops them writing into the stored file.
		s.mu.Lock()
		part.committed = true
		s.mu.Unlock()
		if err := s.Store.Adopt(path, part.buf); err != nil {
			nexus.PutStatus(final, err)
		} else {
			s.mu.Lock()
			delete(s.parts, uploadID)
			s.mu.Unlock()
			final.PutBool(true)
			final.PutInt64(size)
		}
	} else {
		s.mu.Lock()
		got := part.ledger.Bytes()
		s.mu.Unlock()
		nexus.PutStatus(final, fmt.Errorf("gridftp: upload incomplete (%d/%d bytes)", got, size))
	}
	_ = nexus.WriteFrame(st, final)
}

// handleData serves one data channel. The channel handshake names the
// transfer and the channel index; downloads then stream this channel's
// round-robin share of the block list, uploads consume blocks into the
// partial buffer and ledger.
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
	retr := s.retrs[id]
	stor := s.stors[id]
	s.mu.Unlock()
	switch {
	case retr != nil && int(idx) < retr.streams:
		s.serveRetrChannel(env, st, id, retr, int(idx))
	case stor != nil && int(idx) < stor.streams:
		s.serveStorChannel(env, st, stor)
	}
}

func (s *Server) serveRetrChannel(env transport.Env, st transport.Stream, id string, x *retrXfer, idx int) {
	defer func() {
		s.mu.Lock()
		x.remaining--
		if x.remaining == 0 {
			delete(s.retrs, id)
		}
		s.mu.Unlock()
	}()
	for i := idx; i < len(x.blocks); i += x.streams {
		r := x.blocks[i]
		if err := writeBlock(st, 0, r.Off, x.data[r.Off:r.End()]); err != nil {
			return
		}
	}
	_ = writeEOD(st)
}

func (s *Server) serveStorChannel(env transport.Env, st transport.Stream, x *storXfer) {
	p := x.partial
	var chanErr error
	var buf []byte // this channel's block buffer, grown by readBlock
	for {
		flags, off, payload, err := readBlock(st, &buf)
		if err != nil {
			chanErr = err
			break
		}
		if flags&flagEOD != 0 {
			break
		}
		if off+int64(len(payload)) > p.size {
			chanErr = fmt.Errorf("gridftp: block [%d,+%d) beyond size %d", off, len(payload), p.size)
			break
		}
		s.mu.Lock()
		if !p.committed {
			copy(p.buf[off:], payload)
			p.ledger.Add(off, int64(len(payload)))
		}
		s.mu.Unlock()
	}
	s.mu.Lock()
	x.remaining--
	complete := chanErr == nil && p.ledger.Complete(p.size)
	s.mu.Unlock()
	x.done.Put(env, complete)
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
