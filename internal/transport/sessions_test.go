package transport

import "testing"

// TestSessionsKeepsTwoPerKey: a key holds at most two idle sessions, Take
// hands back the one kept last, keys do not mix, and a nil table keeps
// nothing.
func TestSessionsKeepsTwoPerKey(t *testing.T) {
	var s Sessions
	a, b, c := &tcpConn{local: "a"}, &tcpConn{local: "b"}, &tcpConn{local: "c"}
	if !s.Keep("k", a) || !s.Keep("k", b) {
		t.Fatal("Keep refused one of the first two sessions for a key")
	}
	if s.Keep("k", c) {
		t.Fatal("Keep took a third idle session for one key")
	}
	if !s.Keep("other", c) {
		t.Fatal("a full key refused a session for another key")
	}
	for _, want := range []Conn{b, a, nil} {
		if got := s.Take("k"); got != want {
			t.Fatalf("Take = %v, want %v", got, want)
		}
	}
	if got := s.Take("other"); got != c {
		t.Fatalf("Take(other) = %v, want %v", got, c)
	}
	var none *Sessions
	if none.Keep("k", a) || none.Take("k") != nil {
		t.Fatal("a nil table kept a session")
	}
}

// TestSessionsOfTCPEnv: each NewTCPEnv has a table of its own, which the
// envs its Spawn hands out share.
func TestSessionsOfTCPEnv(t *testing.T) {
	env, other := NewTCPEnv("localhost"), NewTCPEnv("localhost")
	if SessionsOf(env) == nil || SessionsOf(env) == SessionsOf(other) {
		t.Fatal("two TCP envs share a session table, or one has none")
	}
	child := make(chan *Sessions, 1)
	env.Spawn("child", func(e Env) { child <- SessionsOf(e) })
	if <-child != SessionsOf(env) {
		t.Fatal("a spawned env has a session table of its own")
	}
	if SessionsOf(randEnv{Env: env}) != nil {
		t.Fatal("SessionsOf found a table on an env without the method")
	}
}
