package transport

import (
	"fmt"
	"sync"
)

// Serve is the accept loop every daemon runs: it accepts on l until l
// closes, handing each connection to handle on a service process of its own
// named name. It returns when Accept fails, which a daemon's Close causes.
func Serve(env Env, l Listener, name string, handle func(Env, Conn)) {
	for {
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		env.SpawnService(name, func(e Env) { handle(e, c) })
	}
}

// Bound holds the listeners a daemon's Serve has bound and the sessions its
// handlers serve. Daemons embed it for their Close and Addr.
type Bound struct {
	ls []Listener

	mu       sync.Mutex
	sessions []*served
	closed   bool
}

// served is one connection a daemon serves; busy while it acts on a
// request.
type served struct {
	c    Conn
	busy bool
}

// Hold records the listeners Serve bound, replacing any held before. Addr
// reports the first.
func (b *Bound) Hold(ls ...Listener) { b.ls = ls }

// Listen is a daemon's Serve: it binds port, holds the listener, reports its
// address to ready (when non-nil), and accepts on it (Serve) until Close,
// handing each connection to handle on a service process named name. A bind
// failure reads "<what>: listen: …".
func (b *Bound) Listen(env Env, port int, what, name string, ready func(addr string), handle func(Env, Conn)) error {
	l, err := env.Listen(port)
	if err != nil {
		return fmt.Errorf("%s: listen: %w", what, err)
	}
	b.Hold(l)
	if ready != nil {
		ready(l.Addr())
	}
	Serve(env, l, name, handle)
	return nil
}

// Addr returns the first held listener's "host:port"; Serve must have bound
// it.
func (b *Bound) Addr() string { return b.ls[0].Addr() }

// Session serves c as a session of the daemon and closes it on return. next
// waits for the next request, with the session idle, and returns nil once
// one has arrived; answer acts on it and writes the reply, and reports
// whether the session goes on. The session ends when next fails (EOF, a
// frame over the limit, or Close closing the idle connection), when answer
// reports false, or after the reply to a request that was in flight when
// Close ran. A request read after Close is never acted on, so a request on a
// session Close ends is either answered or never acted on.
func (b *Bound) Session(env Env, c Conn, next func() error, answer func() bool) {
	defer c.Close(env)
	s := &served{c: c}
	if !b.track(s) {
		return
	}
	defer b.untrack(s)
	for next() == nil && b.setBusy(s, true) {
		ok := answer()
		if !b.setBusy(s, false) || !ok {
			return
		}
	}
}

// track records a new session; it reports false once Close has run.
func (b *Bound) track(s *served) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	b.sessions = append(b.sessions, s)
	return true
}

func (b *Bound) untrack(s *served) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, t := range b.sessions {
		if t == s {
			b.sessions = append(b.sessions[:i], b.sessions[i+1:]...)
			return
		}
	}
}

// setBusy marks s as acting on a request or done with one; it reports false
// once Close has run, and the session must then end (before acting on a
// request, or after answering one).
func (b *Bound) setBusy(s *served, busy bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s.busy = busy
	return !b.closed
}

// Close unbinds every held listener, which ends the daemon's accept loops,
// and ends every session: an idle one at once, a busy one after its reply.
// Before Serve has bound any listener it only refuses later sessions.
func (b *Bound) Close(env Env) {
	b.mu.Lock()
	b.closed = true
	var idle []Conn
	for _, s := range b.sessions {
		if !s.busy {
			idle = append(idle, s.c)
		}
	}
	b.mu.Unlock()
	for _, l := range b.ls {
		_ = l.Close(env)
	}
	for _, c := range idle {
		_ = c.Close(env)
	}
}
