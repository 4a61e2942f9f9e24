package transport

import "sync"

// maxIdle is how many idle sessions Sessions keeps per key.
const maxIdle = 2

// Sessions is a table of idle client sessions: connections that have been
// set up (dialed and, say, authenticated), have completed an exchange, and
// may carry the next one for the same key. A caller that takes one owns it
// until it keeps it again or closes it. A table belongs to one network: each
// simnet Network has one, and so does each NewTCPEnv (shared by the envs its
// Spawn hands out), so a session never outlives the network it was dialed
// on. A nil *Sessions keeps nothing.
type Sessions struct {
	mu   sync.Mutex
	idle map[any]*idleSessions
}

type idleSessions struct {
	n     int
	conns [maxIdle]Conn
}

// Take removes and returns the session kept last under key, or nil when
// none is idle.
func (s *Sessions) Take(key any) Conn {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.idle[key]
	if set == nil || set.n == 0 {
		return nil
	}
	set.n--
	c := set.conns[set.n]
	set.conns[set.n] = nil
	return c
}

// Keep files c as idle under key. It reports false, and keeps nothing, when
// key already holds maxIdle sessions; the caller then closes c.
func (s *Sessions) Keep(key any, c Conn) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.idle[key]
	if set == nil {
		if s.idle == nil {
			s.idle = make(map[any]*idleSessions)
		}
		set = &idleSessions{}
		s.idle[key] = set
	}
	if set.n == maxIdle {
		return false
	}
	set.conns[set.n] = c
	set.n++
	return true
}

// SessionsOf returns the session table of env's network, found through a
// `Sessions() *Sessions` method, or nil when env has none.
func SessionsOf(env Env) *Sessions {
	if s, ok := env.(interface{ Sessions() *Sessions }); ok {
		return s.Sessions()
	}
	return nil
}
