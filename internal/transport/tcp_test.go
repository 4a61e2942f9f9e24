package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"
)

func TestSplitJoinAddr(t *testing.T) {
	host, port, err := SplitAddr("etl-sun:7010")
	if err != nil || host != "etl-sun" || port != 7010 {
		t.Fatalf("SplitAddr = %q,%d,%v", host, port, err)
	}
	if JoinAddr("etl-sun", 7010) != "etl-sun:7010" {
		t.Fatal("JoinAddr mismatch")
	}
	if _, _, err := SplitAddr("noport"); err == nil {
		t.Fatal("missing port accepted")
	}
	if _, _, err := SplitAddr("h:notnum"); err == nil {
		t.Fatal("bad port accepted")
	}
	if _, _, err := SplitAddr("h:70000"); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestQuickSplitJoinRoundTrip(t *testing.T) {
	prop := func(host string, port uint16) bool {
		h, p, err := SplitAddr(JoinAddr(host, int(port)))
		// Hosts containing ':' are not representable; skip them.
		for _, c := range host {
			if c == ':' {
				return true
			}
		}
		return err == nil && h == host && p == int(port)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPEchoLoopback(t *testing.T) {
	env := NewTCPEnv("testhost")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(env)

	var wg sync.WaitGroup
	wg.Add(1)
	env.Spawn("server", func(e Env) {
		defer wg.Done()
		c, err := l.Accept(e)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(Stream{Env: e, Conn: c}, buf); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(e, buf); err != nil {
			t.Error(err)
		}
		_ = c.Close(e)
	})

	c, err := env.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(env, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(Stream{Env: env, Conn: c}, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
	// After server close, reads hit EOF.
	if _, err := c.Read(env, buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read after close = %v, want EOF", err)
	}
	wg.Wait()
}

func TestTCPDialRefused(t *testing.T) {
	env := NewTCPEnv("h")
	// Bind and immediately close to get a port that is very likely free.
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr()
	_ = l.Close(env)
	if _, err := env.Dial(addr); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial closed port = %v, want ErrRefused", err)
	}
}

func TestTCPDialGuard(t *testing.T) {
	env := NewTCPEnv("h")
	env.DialGuard = func(addr string) error { return ErrFirewallDenied }
	if _, err := env.Dial("h:80"); !errors.Is(err, ErrFirewallDenied) {
		t.Fatalf("guarded dial = %v, want ErrFirewallDenied", err)
	}
}

func TestTCPListenerCloseUnblocksAccept(t *testing.T) {
	env := NewTCPEnv("h")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	env.Spawn("acceptor", func(e Env) {
		_, err := l.Accept(e)
		done <- err
	})
	_ = l.Close(env)
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept after Close = %v, want ErrClosed", err)
	}
}

func TestTCPEnvClockMonotonic(t *testing.T) {
	env := NewTCPEnv("h")
	a := env.Now()
	env.Sleep(10 * 1e6) // 10ms
	if env.Now() <= a {
		t.Fatal("clock did not advance")
	}
}

// recConn is a socket that records each write it is given.
type recConn struct {
	net.Conn
	writes [][]byte
}

func (r *recConn) Write(b []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), b...))
	return len(b), nil
}

// recEnd is a Conn that is not a TCPEnv socket and records its writes.
type recEnd struct {
	tcpConn
	writes [][]byte
}

func (r *recEnd) Write(env Env, b []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), b...))
	return len(b), nil
}

func writeSizes(ws [][]byte) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = len(w)
	}
	return out
}

// TestTCPWriteHeadJoins checks WriteHead's one write per message on a TCPEnv
// socket up to joinMax, and its two writes past it and on any other Conn,
// and that the socket path allocates nothing once its pooled buffer has
// grown.
func TestTCPWriteHeadJoins(t *testing.T) {
	head, body := []byte{0, 0, 0, 100}, bytes.Repeat([]byte{7}, 100)
	sock := &recConn{}
	st := Stream{Conn: &tcpConn{c: sock}}
	if err := WriteHead(st, head, body); err != nil {
		t.Fatal(err)
	}
	if len(sock.writes) != 1 || !bytes.Equal(sock.writes[0], append(head, body...)) {
		t.Fatalf("socket writes %v, want one of 104 bytes", writeSizes(sock.writes))
	}
	sock.writes = nil
	big := make([]byte, joinMax)
	if err := WriteHead(st, head, big); err != nil {
		t.Fatal(err)
	}
	if got := writeSizes(sock.writes); len(got) != 2 || got[0] != 4 || got[1] != joinMax {
		t.Fatalf("socket writes %v past joinMax, want [4 %d]", got, joinMax)
	}
	other := &recEnd{}
	if err := WriteHead(Stream{Conn: other}, head, body); err != nil {
		t.Fatal(err)
	}
	if got := writeSizes(other.writes); len(got) != 2 || got[0] != 4 || got[1] != 100 {
		t.Fatalf("non-socket writes %v, want [4 100]", got)
	}
	sock.writes = make([][]byte, 0, 1000)
	var w io.Writer = st // as the protocols hold it
	if n := testing.AllocsPerRun(100, func() {
		_ = WriteHead(w, head, body)
		sock.writes = sock.writes[:0]
	}); n > 1 {
		// One allocation is recConn's own copy of the write.
		t.Fatalf("WriteHead on a socket allocates %.0f times per call, want none of its own", n-1)
	}
}
