package transport

import (
	"io"
	"net"
	"testing"
)

// TestBoundSessionCloseTCP: a session answers request after request; Close
// ends an idle session at once and a busy one after its reply, and a session
// that starts after Close ends before it reads anything.
func TestBoundSessionCloseTCP(t *testing.T) {
	env := NewTCPEnv("localhost")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	var b Bound
	b.Hold(l)
	entered, release := make(chan struct{}), make(chan struct{})
	// Each request is one byte, answered by echoing it; a 'b' holds its
	// session busy until release.
	handle := func(e Env, c Conn) {
		var req [1]byte
		b.Session(e, c, func() error {
			_, err := io.ReadFull(Stream{Env: e, Conn: c}, req[:])
			return err
		}, func() bool {
			if req[0] == 'b' {
				close(entered)
				<-release
			}
			_, err := c.Write(e, req[:])
			return err == nil
		})
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		Serve(env, l, "session", handle)
	}()
	// call writes req on c and returns the byte read back, or the error.
	call := func(c Conn, req byte) (byte, error) {
		if _, err := c.Write(env, []byte{req}); err != nil {
			return 0, err
		}
		var resp [1]byte
		_, err := io.ReadFull(Stream{Env: env, Conn: c}, resp[:])
		return resp[0], err
	}
	idle, err := env.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close(env)
	for _, req := range []byte("xy") {
		if got, err := call(idle, req); err != nil || got != req {
			t.Fatalf("request %q on one session = %q, %v", req, got, err)
		}
	}
	busy, err := env.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close(env)
	replied := make(chan error, 1)
	go func() {
		got, err := call(busy, 'b')
		if err == nil && got != 'b' {
			err = io.ErrUnexpectedEOF
		}
		replied <- err
	}()
	<-entered
	b.Close(env)
	<-served
	if _, err := call(idle, 'z'); err == nil {
		t.Fatal("an idle session answered after Close")
	}
	close(release)
	if err := <-replied; err != nil {
		t.Fatalf("the request busy across Close: %v", err)
	}
	if _, err := call(busy, 'c'); err == nil {
		t.Fatal("a busy session answered a second request after Close")
	}

	srv, cli := net.Pipe()
	defer cli.Close()
	read := false
	b.Session(env, pipeConn{srv}, func() error { read = true; return nil }, func() bool { return false })
	if read {
		t.Fatal("a session that started after Close read a request")
	}
	if _, err := cli.Write([]byte{1}); err == nil {
		t.Fatal("a session that started after Close left its connection open")
	}
}

// pipeConn is one end of a net.Pipe as a Conn.
type pipeConn struct{ c net.Conn }

func (p pipeConn) Read(env Env, b []byte) (int, error)  { return p.c.Read(b) }
func (p pipeConn) Write(env Env, b []byte) (int, error) { return p.c.Write(b) }
func (p pipeConn) Close(env Env) error                  { return p.c.Close() }
func (p pipeConn) LocalAddr() string                    { return "pipe:1" }
func (p pipeConn) RemoteAddr() string                   { return "pipe:2" }
