package proxy

import (
	"fmt"
	"sync/atomic"

	"nxcluster/internal/transport"
)

// InnerServer is the relay daemon inside the firewall. It listens on the
// nxport — the single port the site firewall opens for incoming traffic from
// the outer server — and completes passive-open chains by dialing the bound
// client's private listener on the inside network.
//
// The paper notes that binding the proxy to a privileged port (requiring
// root) strengthens the deployment; port policy is the operator's choice
// here and the firewall restricts the source anyway.
type InnerServer struct {
	transport.Bound
	// Relay tunes the data pumps.
	Relay RelayConfig
	// Secret, when non-empty, requires an HMAC proof on every splice
	// request; configure the same site secret on the outer server.
	Secret string

	// Relay counters, updated atomically (see OuterServer).
	bindRelays     int64
	bytes          int64
	registrations  int64
	suspectPeriods int64
	trace          func(format string, args ...interface{})
}

// NewInnerServer creates an inner server.
func NewInnerServer(relay RelayConfig) *InnerServer {
	return &InnerServer{Relay: relay}
}

// SetTrace installs a tracing callback.
func (s *InnerServer) SetTrace(fn func(format string, args ...interface{})) { s.trace = fn }

func (s *InnerServer) tracef(format string, args ...interface{}) {
	if s.trace != nil {
		s.trace(format, args...)
	}
}

// Stats returns a snapshot of relay counters.
func (s *InnerServer) Stats() Stats {
	return Stats{
		BindRelays:     int(atomic.LoadInt64(&s.bindRelays)),
		Bytes:          atomic.LoadInt64(&s.bytes),
		Registrations:  int(atomic.LoadInt64(&s.registrations)),
		SuspectPeriods: int(atomic.LoadInt64(&s.suspectPeriods)),
	}
}

// Serve binds the nxport and runs the accept loop; it blocks its process.
func (s *InnerServer) Serve(env transport.Env, nxport int, ready func(addr string)) error {
	return s.Listen(env, nxport, "proxy inner", "inner:conn", ready, s.handle)
}

// handle serves one connection from the outer server: read the splice
// request, dial the client's private listener, deliver the accept preamble,
// and pump (paper Figure 4 steps 4-5).
func (s *InnerServer) handle(env transport.Env, c transport.Conn) {
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
	if err == nil && s.Secret != "" {
		fields, err = verifyProof(s.Secret, nonce, typ, fields)
	}
	if err != nil || typ != msgSplice || len(fields) != 2 {
		_ = writeMsg(st, msgError, "inner: want authenticated splice request")
		_ = c.Close(env)
		return
	}
	target, connID := fields[0], fields[1]
	s.tracef("inner: splice %s toward %s", connID, target)
	local, err := env.Dial(target)
	if err != nil {
		_ = writeMsg(st, msgError, fmt.Sprintf("dial %s: %v", target, err))
		_ = c.Close(env)
		return
	}
	lst := transport.Stream{Env: env, Conn: local}
	if err := writeMsg(lst, msgAccept, connID); err != nil {
		_ = local.Close(env)
		_ = c.Close(env)
		return
	}
	if _, err := expect(lst, msgOK); err != nil {
		_ = local.Close(env)
		_ = c.Close(env)
		return
	}
	if err := writeMsg(st, msgOK); err != nil {
		_ = local.Close(env)
		_ = c.Close(env)
		return
	}
	atomic.AddInt64(&s.bindRelays, 1)
	s.tracef("inner: relaying %s", connID)
	splice(env, "inner:"+connID, c, local, s.Relay, &s.bytes)
}
