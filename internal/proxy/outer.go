package proxy

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nxcluster/internal/transport"
)

// OuterServer is the relay daemon outside the firewall. It serves two kinds
// of clients on its control port: processes inside the site sending connect
// and bind requests (their outgoing connections pass the firewall), and —
// on dynamically bound public ports — remote processes connecting toward
// bound clients.
type OuterServer struct {
	transport.Bound
	// InnerAddr is the inner server's "host:nxport"; the firewall must
	// permit incoming connections from this server to that address.
	InnerAddr string
	// Relay tunes the data pumps.
	Relay RelayConfig
	// Secret, when non-empty, requires an HMAC proof on every control
	// request (see secure.go); the same site secret must be configured on
	// the inner server and in client Configs.
	Secret string

	nextBind int64
	// Relay counters, updated atomically: handler goroutines on real TCP
	// run concurrently.
	connectRelays int64
	bindRelays    int64
	bytes         int64
	registrations int64
	innerLive     int32
	mu            sync.Mutex // guards binds and registeredInner across TCP goroutines
	binds         map[string]*outerBind
	// registeredInner is the inner address most recently advertised over a
	// msgRegister session; it overrides the static InnerAddr.
	registeredInner string
	trace           func(format string, args ...interface{})
}

type outerBind struct {
	id         string
	clientAddr string // the bound client's private listener inside the site
	public     transport.Listener
	nextConn   int64
}

// NewOuterServer creates an outer server that will splice passive opens via
// the inner server at innerAddr.
func NewOuterServer(innerAddr string, relay RelayConfig) *OuterServer {
	return &OuterServer{InnerAddr: innerAddr, Relay: relay, binds: make(map[string]*outerBind)}
}

// SetTrace installs a tracing callback used by the Figure 3/4 experiment
// renderers.
func (s *OuterServer) SetTrace(fn func(format string, args ...interface{})) { s.trace = fn }

func (s *OuterServer) tracef(format string, args ...interface{}) {
	if s.trace != nil {
		s.trace(format, args...)
	}
}

// Stats returns a snapshot of relay counters.
func (s *OuterServer) Stats() Stats {
	return Stats{
		ConnectRelays:  int(atomic.LoadInt64(&s.connectRelays)),
		BindRelays:     int(atomic.LoadInt64(&s.bindRelays)),
		Bytes:          atomic.LoadInt64(&s.bytes),
		Registrations:  int(atomic.LoadInt64(&s.registrations)),
		InnerConnected: atomic.LoadInt32(&s.innerLive) != 0,
	}
}

// innerAddr returns the inner server's current nxport address: the one
// registered over the control channel when there is one, the statically
// configured InnerAddr otherwise.
func (s *OuterServer) innerAddr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.registeredInner != "" {
		return s.registeredInner
	}
	return s.InnerAddr
}

// Serve binds the control port and runs the accept loop; it blocks its
// process (start it under a daemon Spawn). port 0 picks an ephemeral port;
// ready (optional) receives the bound address, after which Addr is valid.
func (s *OuterServer) Serve(env transport.Env, port int, ready func(addr string)) error {
	return s.Listen(env, port, "proxy outer", "outer:conn", ready, s.handleControl)
}

// handleControl serves one client connection on the control port,
// challenging it first when a site secret is configured.
func (s *OuterServer) handleControl(env transport.Env, c transport.Conn) {
	st := transport.Stream{Env: env, Conn: c}
	var nonce string
	if s.Secret != "" {
		var err error
		if nonce, err = issueChallenge(st); err != nil {
			_ = c.Close(env)
			return
		}
	}
	typ, fields, err := readMsg(st)
	if err != nil {
		_ = c.Close(env)
		return
	}
	if s.Secret != "" {
		if fields, err = verifyProof(s.Secret, nonce, typ, fields); err != nil {
			s.tracef("outer: rejected %s: %v", c.RemoteAddr(), err)
			_ = writeMsg(st, msgError, "authentication failed")
			_ = c.Close(env)
			return
		}
	}
	switch typ {
	case msgConnect:
		if len(fields) != 1 {
			_ = writeMsg(st, msgError, "connect: want 1 field")
			_ = c.Close(env)
			return
		}
		s.handleConnect(env, c, fields[0])
	case msgBind:
		if len(fields) != 1 {
			_ = writeMsg(st, msgError, "bind: want 1 field")
			_ = c.Close(env)
			return
		}
		s.handleBind(env, c, fields[0])
	case msgRegister:
		if len(fields) != 1 {
			_ = writeMsg(st, msgError, "register: want 1 field")
			_ = c.Close(env)
			return
		}
		s.handleRegister(env, c, fields[0])
	default:
		_ = writeMsg(st, msgError, fmt.Sprintf("unexpected message %#x", typ))
		_ = c.Close(env)
	}
}

// handleRegister serves one registration session from the inner server:
// record its advertised nxport address, then answer keepalive pings until
// the session breaks (connection error or reset). A broken session leaves
// the last registered address in place — splices keep working through a
// flap; the inner server re-registers when it notices the break.
func (s *OuterServer) handleRegister(env transport.Env, c transport.Conn, innerAddr string) {
	st := transport.Stream{Env: env, Conn: c}
	s.mu.Lock()
	s.registeredInner = innerAddr
	s.mu.Unlock()
	n := atomic.AddInt64(&s.registrations, 1)
	atomic.StoreInt32(&s.innerLive, 1)
	s.tracef("outer: inner server registered from %s as %s (session %d)", c.RemoteAddr(), innerAddr, n)
	if err := writeMsg(st, msgRegisterOK); err == nil {
		for {
			typ, _, err := readMsg(st)
			if err != nil || typ != msgPing {
				break
			}
			if err := writeMsg(st, msgPong); err != nil {
				break
			}
		}
	}
	atomic.StoreInt32(&s.innerLive, 0)
	s.tracef("outer: registration session %d ended", n)
	_ = c.Close(env)
}

// handleConnect implements the active open (paper Figure 3): dial the
// target on the client's behalf and relay.
func (s *OuterServer) handleConnect(env transport.Env, c transport.Conn, target string) {
	s.tracef("outer: connect request from %s for %s", c.RemoteAddr(), target)
	st := transport.Stream{Env: env, Conn: c}
	out, err := env.Dial(target)
	if err != nil {
		_ = writeMsg(st, msgError, fmt.Sprintf("dial %s: %v", target, err))
		_ = c.Close(env)
		return
	}
	if err := writeMsg(st, msgOK); err != nil {
		_ = out.Close(env)
		_ = c.Close(env)
		return
	}
	atomic.AddInt64(&s.connectRelays, 1)
	s.tracef("outer: relaying %s <-> %s", c.RemoteAddr(), target)
	splice(env, "outer:relay", c, out, s.Relay, &s.bytes)
}

// handleBind implements the passive open registration (paper Figure 4,
// steps 1-2): bind a public port, remember the client's private listener
// address, and keep the control connection open until the client unbinds.
func (s *OuterServer) handleBind(env transport.Env, c transport.Conn, clientAddr string) {
	st := transport.Stream{Env: env, Conn: c}
	public, err := env.Listen(0)
	if err != nil {
		_ = writeMsg(st, msgError, fmt.Sprintf("bind: %v", err))
		_ = c.Close(env)
		return
	}
	id := fmt.Sprintf("bind-%d", atomic.AddInt64(&s.nextBind, 1))
	b := &outerBind{id: id, clientAddr: clientAddr, public: public}
	s.mu.Lock()
	s.binds[id] = b
	s.mu.Unlock()
	s.tracef("outer: bind %s for client %s -> public %s", id, clientAddr, public.Addr())
	if err := writeMsg(st, msgBindOK, public.Addr(), id); err != nil {
		_ = public.Close(env)
		_ = c.Close(env)
		return
	}
	env.SpawnService("outer:"+id, func(e transport.Env) { s.acceptPublic(e, b) })
	// Hold the control connection; any message or EOF tears the bind down.
	for {
		typ, _, err := readMsg(st)
		if err != nil || typ == msgUnbind {
			break
		}
	}
	s.mu.Lock()
	delete(s.binds, id)
	s.mu.Unlock()
	_ = public.Close(env)
	_ = c.Close(env)
	s.tracef("outer: unbind %s", id)
}

// acceptPublic completes the passive-open chain for each remote peer (paper
// Figure 4, steps 3-5): peer connects to the public port, the outer server
// connects to the inner server through the pre-opened nxport and asks it to
// splice toward the client's private listener.
func (s *OuterServer) acceptPublic(env transport.Env, b *outerBind) {
	transport.Serve(env, b.public, "outer:"+b.id+":peer", func(e transport.Env, pc transport.Conn) {
		connID := fmt.Sprintf("%s/conn-%d", b.id, atomic.AddInt64(&b.nextConn, 1))
		inner := s.innerAddr()
		s.tracef("outer: peer %s for %s; splicing via inner %s", pc.RemoteAddr(), b.id, inner)
		in, err := e.Dial(inner)
		if err != nil {
			_ = pc.Close(e)
			return
		}
		ist := transport.Stream{Env: e, Conn: in}
		if err := sendAuthedRequest(ist, s.Secret, msgSplice, b.clientAddr, connID); err != nil {
			_ = in.Close(e)
			_ = pc.Close(e)
			return
		}
		if _, err := expect(ist, msgOK); err != nil {
			_ = in.Close(e)
			_ = pc.Close(e)
			return
		}
		atomic.AddInt64(&s.bindRelays, 1)
		splice(e, "outer:"+connID, pc, in, s.Relay, &s.bytes)
	})
}
