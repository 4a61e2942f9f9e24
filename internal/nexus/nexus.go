package nexus

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

// Scheme prefixes every endpoint address.
const Scheme = "x-nexus://"

// Handler receives a remote service request's buffer. It may keep the
// payload bytes (Bytes, and the slices GetBytes returns), which are its own,
// but not b: the connection's reader reuses it for the next request.
// Handlers run on the delivering connection's reader, so per-startpoint
// ordering is preserved; on the simulator that reader runs in place, in
// kernel context. So a handler must not block: hand work to a queue.
type Handler func(env transport.Env, b *Buffer)

// Context is one process's Nexus world: a single listener (direct or via
// the Nexus Proxy) demultiplexing RSRs to its endpoints.
type Context struct {
	dialer    proxy.Dialer
	listener  transport.Listener
	addr      string
	endpoints map[uint32]*Endpoint
	nextEP    uint32
	closed    bool
	rsrCount  int64 // delivered RSRs
	dropCount int64 // undeliverable RSRs
}

// Init creates a context: it binds the process's Nexus port (through the
// proxy when cfg enables it, exactly like the paper's patched Globus) and
// starts the accept loop on a spawned process.
func Init(env transport.Env, cfg proxy.Config) (*Context, error) {
	dialer := proxy.Dialer{Cfg: cfg}
	l, err := dialer.Listen(env, 0)
	if err != nil {
		return nil, fmt.Errorf("nexus: bind: %w", err)
	}
	ctx := &Context{
		dialer:    dialer,
		listener:  l,
		addr:      l.Addr(),
		endpoints: make(map[uint32]*Endpoint),
	}
	env.SpawnService("nexus:accept", func(e transport.Env) {
		transport.Serve(e, l, "nexus:reader", ctx.readLoop)
	})
	return ctx, nil
}

// Addr returns the context's advertised "host:port" (the proxy public
// address when proxied).
func (c *Context) Addr() string { return c.addr }

// Delivered returns the count of RSRs dispatched to handlers.
func (c *Context) Delivered() int64 { return atomic.LoadInt64(&c.rsrCount) }

// Shutdown closes the listener; existing connections drain on their own.
func (c *Context) Shutdown(env transport.Env) {
	if c.closed {
		return
	}
	c.closed = true
	_ = c.listener.Close(env)
}

// readLoop decodes frames [epID u32][handlerID u32][len u32][payload] and
// dispatches to handlers in arrival order, until the stream ends or a frame
// header announces more than DefaultMaxFrame bytes.
func (c *Context) readLoop(env transport.Env, conn transport.Conn) {
	f := &frames{ctx: c, env: env}
	_ = transport.ReadEach(env, conn, f.fill)
	_ = conn.Close(env)
}

// frames is one connection's frame assembler: transport.ReadEach fills its
// header, then its payload, and each complete frame is dispatched.
type frames struct {
	ctx       *Context
	env       transport.Env
	hdr       [12]byte
	payload   []byte
	buf       Buffer // what the handler reads the payload through
	inPayload bool
	got       int // bytes of the header or payload received so far
}

// fill takes the n bytes that arrived and hands out the rest of the current
// header or payload; nil stops the reader on an oversized frame.
func (f *frames) fill(n int) []byte {
	f.got += n
	for {
		if !f.inPayload {
			if f.got < len(f.hdr) {
				return f.hdr[f.got:]
			}
			size := binary.BigEndian.Uint32(f.hdr[8:12])
			if size > DefaultMaxFrame {
				atomic.AddInt64(&f.ctx.dropCount, 1)
				return nil
			}
			f.payload, f.inPayload, f.got = make([]byte, size), true, 0
		}
		if f.got < len(f.payload) {
			return f.payload[f.got:]
		}
		f.buf = Buffer{data: f.payload}
		f.payload, f.inPayload, f.got = nil, false, 0
		f.ctx.dispatch(f.env, binary.BigEndian.Uint32(f.hdr[0:4]), binary.BigEndian.Uint32(f.hdr[4:8]), &f.buf)
		f.buf = Buffer{} // the payload is the handler's now
	}
}

// dispatch hands one RSR's buffer to its handler, or counts it dropped.
func (c *Context) dispatch(env transport.Env, epID, handlerID uint32, b *Buffer) {
	ep := c.endpoints[epID]
	if ep == nil {
		atomic.AddInt64(&c.dropCount, 1)
		return
	}
	h := ep.handlers[handlerID]
	if h == nil {
		atomic.AddInt64(&c.dropCount, 1)
		return
	}
	atomic.AddInt64(&c.rsrCount, 1)
	h(env, b)
}

// Endpoint is a communication endpoint: an addressable handler table.
type Endpoint struct {
	ctx      *Context
	id       uint32
	handlers map[uint32]Handler
}

// NewEndpoint allocates an endpoint in this context.
func (c *Context) NewEndpoint() *Endpoint {
	c.nextEP++
	ep := &Endpoint{ctx: c, id: c.nextEP, handlers: make(map[uint32]Handler)}
	c.endpoints[ep.id] = ep
	return ep
}

// Register binds handler id to fn.
func (ep *Endpoint) Register(id uint32, fn Handler) { ep.handlers[id] = fn }

// Address returns the endpoint's attachable address,
// "x-nexus://host:port/epID". When the context runs behind the Nexus Proxy
// the host:port is the outer server's public relay address — remote
// startpoints need no special handling.
func (ep *Endpoint) Address() string {
	return fmt.Sprintf("%s%s/%d", Scheme, ep.ctx.addr, ep.id)
}

// ParseAddress splits an endpoint address into transport address and
// endpoint id.
func ParseAddress(addr string) (hostport string, epID uint32, err error) {
	if !strings.HasPrefix(addr, Scheme) {
		return "", 0, fmt.Errorf("nexus: address %q: missing %s scheme", addr, Scheme)
	}
	rest := addr[len(Scheme):]
	i := strings.LastIndexByte(rest, '/')
	if i < 0 {
		return "", 0, fmt.Errorf("nexus: address %q: missing endpoint id", addr)
	}
	id, err := strconv.ParseUint(rest[i+1:], 10, 32)
	if err != nil {
		return "", 0, fmt.Errorf("nexus: address %q: bad endpoint id", addr)
	}
	return rest[:i], uint32(id), nil
}

// Startpoint is the sending side of a Nexus communication link, attached to
// one remote endpoint over one connection.
type Startpoint struct {
	conn  transport.Conn
	epID  uint32
	addr  string
	mu    transport.Mutex
	frame []byte // the frame being sent, reused under mu
	sent  int64
}

// Attach connects a startpoint to the endpoint at addr, dialing through the
// Nexus Proxy when this context is configured for it.
func (c *Context) Attach(env transport.Env, addr string) (*Startpoint, error) {
	hostport, epID, err := ParseAddress(addr)
	if err != nil {
		return nil, err
	}
	conn, err := c.dialer.Dial(env, hostport)
	if err != nil {
		return nil, fmt.Errorf("nexus: attach %s: %w", addr, err)
	}
	return &Startpoint{conn: conn, epID: epID, addr: addr, mu: env.NewMutex()}, nil
}

// Address returns the attached endpoint's address.
func (sp *Startpoint) Address() string { return sp.addr }

// Send issues a remote service request: the buffer is delivered to the
// endpoint's handler handlerID. Sends from multiple processes serialize on
// an internal lock; per-startpoint ordering is guaranteed.
func (sp *Startpoint) Send(env transport.Env, handlerID uint32, b *Buffer) error {
	sp.mu.Lock(env)
	defer sp.mu.Unlock(env)
	payload := b.Bytes()
	frame := binary.BigEndian.AppendUint32(sp.frame[:0], sp.epID)
	frame = binary.BigEndian.AppendUint32(frame, handlerID)
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	sp.frame = append(frame, payload...)
	if _, err := sp.conn.Write(env, sp.frame); err != nil {
		return fmt.Errorf("nexus: send to %s: %w", sp.addr, err)
	}
	atomic.AddInt64(&sp.sent, 1)
	return nil
}

// Close releases the startpoint's connection.
func (sp *Startpoint) Close(env transport.Env) error { return sp.conn.Close(env) }
