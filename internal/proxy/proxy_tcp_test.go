package proxy

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nxcluster/internal/transport"
)

// startTCPProxy boots an outer and inner server pair on loopback TCP and
// returns the client configuration.
func startTCPProxy(t *testing.T, relay RelayConfig) (Config, *OuterServer, *InnerServer) {
	t.Helper()
	env := transport.NewTCPEnv("localhost")

	inner := NewInnerServer(relay)
	innerReady := make(chan string, 1)
	env.Spawn("inner", func(e transport.Env) {
		if err := inner.Serve(e, 0, func(addr string) { innerReady <- addr }); err != nil {
			t.Errorf("inner serve: %v", err)
		}
	})
	innerAddr := <-innerReady

	outer := NewOuterServer(innerAddr, relay)
	outerReady := make(chan string, 1)
	env.Spawn("outer", func(e transport.Env) {
		if err := outer.Serve(e, 0, func(addr string) { outerReady <- addr }); err != nil {
			t.Errorf("outer serve: %v", err)
		}
	})
	outerAddr := <-outerReady

	t.Cleanup(func() {
		outer.Close(env)
		inner.Close(env)
	})
	return Config{OuterServer: outerAddr, InnerServer: innerAddr}, outer, inner
}

func TestTCPActiveConnectRelaysData(t *testing.T) {
	cfg, outer, _ := startTCPProxy(t, RelayConfig{})
	env := transport.NewTCPEnv("localhost")

	// Plain destination server ("PB" in Figure 3).
	dst, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close(env)
	env.Spawn("pb", func(e transport.Env) {
		c, err := dst.Accept(e)
		if err != nil {
			return
		}
		st := transport.Stream{Env: e, Conn: c}
		buf := make([]byte, 4)
		if _, err := io.ReadFull(st, buf); err != nil {
			t.Errorf("pb read: %v", err)
			return
		}
		if _, err := st.Write(append([]byte("re:"), buf...)); err != nil {
			t.Errorf("pb write: %v", err)
		}
	})

	// "PA" connects via NXProxyConnect instead of connect().
	c, err := NXProxyConnect(env, cfg, dst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	st := transport.Stream{Env: env, Conn: c}
	if _, err := st.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "re:ping" {
		t.Fatalf("reply = %q, want re:ping", buf)
	}
	_ = c.Close(env)
	if outer.Stats().ConnectRelays != 1 {
		t.Fatalf("ConnectRelays = %d, want 1", outer.Stats().ConnectRelays)
	}
	// The client has the reply before the pump that forwarded it has counted
	// it, so the counter may trail by one buffer: poll it.
	deadline := time.Now().Add(2 * time.Second)
	for outer.Stats().Bytes < 11 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if outer.Stats().Bytes < 11 {
		t.Fatalf("relayed bytes = %d, want >= 11", outer.Stats().Bytes)
	}
}

func TestTCPActiveConnectRefusedTarget(t *testing.T) {
	cfg, _, _ := startTCPProxy(t, RelayConfig{})
	env := transport.NewTCPEnv("localhost")
	// Find a dead port.
	l, _ := env.Listen(0)
	dead := l.Addr()
	_ = l.Close(env)
	_, err := NXProxyConnect(env, cfg, dead)
	if err == nil {
		t.Fatal("connect to dead target succeeded")
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Fatalf("err = %v, want remote dial error", err)
	}
}

func TestTCPPassiveBindAcceptChain(t *testing.T) {
	cfg, outer, inner := startTCPProxy(t, RelayConfig{})
	envA := transport.NewTCPEnv("localhost") // "PA", behind the firewall
	envB := transport.NewTCPEnv("localhost") // "PB", remote

	pl, err := NXProxyBind(envA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close(envA)
	if pl.Addr() == "" || pl.BindID() == "" {
		t.Fatalf("bind returned addr=%q id=%q", pl.Addr(), pl.BindID())
	}
	// The advertised address must be the outer server's host, not PA's
	// private listener.
	outerHost, _, _ := transport.SplitAddr(cfg.OuterServer)
	advHost, _, err := transport.SplitAddr(pl.Addr())
	if err != nil || advHost != outerHost {
		t.Fatalf("advertised %q, want host %q", pl.Addr(), outerHost)
	}

	done := make(chan error, 1)
	envA.Spawn("pa", func(e transport.Env) {
		c, err := NXProxyAccept(e, pl)
		if err != nil {
			done <- err
			return
		}
		st := transport.Stream{Env: e, Conn: c}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(st, buf); err != nil {
			done <- err
			return
		}
		if _, err := st.Write([]byte("ack:" + string(buf))); err != nil {
			done <- err
			return
		}
		done <- nil
	})

	// PB connects to the advertised (outer) address like a normal socket.
	c, err := envB.Dial(pl.Addr())
	if err != nil {
		t.Fatal(err)
	}
	st := transport.Stream{Env: envB, Conn: c}
	if _, err := st.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := io.ReadFull(st, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ack:hello" {
		t.Fatalf("reply = %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatalf("PA accept path: %v", err)
	}
	if outer.Stats().BindRelays != 1 || inner.Stats().BindRelays != 1 {
		t.Fatalf("BindRelays outer=%d inner=%d, want 1,1",
			outer.Stats().BindRelays, inner.Stats().BindRelays)
	}
}

func TestTCPPassiveMultipleConnections(t *testing.T) {
	cfg, _, _ := startTCPProxy(t, RelayConfig{})
	envA := transport.NewTCPEnv("localhost")
	envB := transport.NewTCPEnv("localhost")

	pl, err := NXProxyBind(envA, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close(envA)

	const n = 4
	envA.Spawn("pa", func(e transport.Env) {
		for i := 0; i < n; i++ {
			c, err := pl.Accept(e)
			if err != nil {
				return
			}
			e.Spawn("echo", func(e2 transport.Env) {
				st := transport.Stream{Env: e2, Conn: c}
				buf := make([]byte, 1)
				if _, err := io.ReadFull(st, buf); err == nil {
					_, _ = st.Write(buf)
				}
				_ = c.Close(e2)
			})
		}
	})

	for i := 0; i < n; i++ {
		c, err := envB.Dial(pl.Addr())
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		st := transport.Stream{Env: envB, Conn: c}
		msg := []byte{byte('a' + i)}
		if _, err := st.Write(msg); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1)
		if _, err := io.ReadFull(st, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != msg[0] {
			t.Fatalf("conn %d echoed %q, want %q", i, buf, msg)
		}
		_ = c.Close(envB)
	}
}

func TestTCPUnbindReleasesPublicPort(t *testing.T) {
	cfg, _, _ := startTCPProxy(t, RelayConfig{})
	env := transport.NewTCPEnv("localhost")
	pl, err := NXProxyBind(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	public := pl.Addr()
	if err := pl.Close(env); err != nil {
		t.Fatal(err)
	}
	// Give the outer server a beat to process the unbind.
	deadline := 50
	var dialErr error
	for i := 0; i < deadline; i++ {
		_, dialErr = env.Dial(public)
		if dialErr != nil {
			break
		}
		env.Sleep(10 * 1e6)
	}
	if dialErr == nil {
		t.Fatal("public port still accepting after unbind")
	}
	if !errors.Is(dialErr, transport.ErrRefused) {
		t.Logf("dial error after unbind: %v (acceptable)", dialErr)
	}
}

// proxiedPair opens a connection through the relays and returns both ends.
// An active open (NXProxyConnect to a plain listener) is relayed by the
// outer server; a passive open (NXProxyBind, a dial from outside to the
// advertised address, NXProxyAccept) by the outer and the inner server.
func proxiedPair(t *testing.T, env transport.Env, cfg Config, passive bool) (client, far transport.Conn) {
	t.Helper()
	var accept func(e transport.Env) (transport.Conn, error)
	var dial func() (transport.Conn, error)
	if passive {
		pl, err := NXProxyBind(env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Close(env)
		accept = func(e transport.Env) (transport.Conn, error) { return NXProxyAccept(e, pl) }
		dial = func() (transport.Conn, error) { return env.Dial(pl.Addr()) }
	} else {
		l, err := env.Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close(env)
		accept = l.Accept
		dial = func() (transport.Conn, error) { return NXProxyConnect(env, cfg, l.Addr()) }
	}
	accepted := make(chan transport.Conn, 1)
	env.Spawn("far", func(e transport.Env) {
		c, _ := accept(e)
		accepted <- c
	})
	client, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	if far = <-accepted; far == nil {
		t.Fatal("the far end accepted no connection")
	}
	return client, far
}

// pattern returns n seeded pseudo-random bytes: no block repeats, so a
// reordered, dropped or duplicated block shows.
func pattern(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// swap sends out from a to b and back from b to a, both at once, and checks
// byte for byte that each side received exactly what the other sent.
func swap(t *testing.T, env transport.Env, a, b transport.Conn, out, back []byte) {
	t.Helper()
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	send := func(c transport.Conn, p []byte) {
		defer wg.Done()
		if _, err := c.Write(env, p); err != nil {
			errs <- fmt.Errorf("write: %w", err)
		}
	}
	recv := func(c transport.Conn, want []byte, dir string) {
		defer wg.Done()
		got := make([]byte, len(want))
		if _, err := io.ReadFull(transport.Stream{Env: env, Conn: c}, got); err != nil {
			errs <- fmt.Errorf("%s read: %w", dir, err)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				errs <- fmt.Errorf("%s: byte %d of %d is %#x, want %#x", dir, i, len(want), got[i], want[i])
				return
			}
		}
	}
	wg.Add(4)
	go send(a, out)
	go send(b, back)
	go recv(b, out, "forward")
	go recv(a, back, "reverse")
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// waitFor polls cond for up to five seconds and reports whether it held.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// TestTCPLargeTransferIntegrity moves a seeded stream through the relay in
// both directions at once, at sizes on each side of the point where a relay
// read fills its buffer and the direction moves into the kernel, and
// compares every byte.
func TestTCPLargeTransferIntegrity(t *testing.T) {
	const buf = 1024
	cfg, _, _ := startTCPProxy(t, RelayConfig{BufBytes: buf})
	env := transport.NewTCPEnv("localhost")
	for _, passive := range []bool{false, true} {
		for _, size := range []int{buf - 1, buf, buf + 1, 64<<10 + 1, 4 << 20} {
			t.Run(fmt.Sprintf("passive=%v/%d", passive, size), func(t *testing.T) {
				a, b := proxiedPair(t, env, cfg, passive)
				defer a.Close(env)
				defer b.Close(env)
				swap(t, env, a, b, pattern(size, int64(size)), pattern(size, int64(size)+1))
			})
		}
	}
}

// TestTCPSplicedRelayKeepsStream pushes bulk both ways through a passive
// open, so both directions at both relays leave the read/write loop, then
// checks that
// small echoes on the same connection still arrive intact and in order,
// that the byte counters account for every byte once both ends close, and
// that no pump is left running.
func TestTCPSplicedRelayKeepsStream(t *testing.T) {
	cfg, outer, inner := startTCPProxy(t, RelayConfig{})
	env := transport.NewTCPEnv("localhost")
	start := runtime.NumGoroutine()

	a, b := proxiedPair(t, env, cfg, true)
	const bulk, echoes = 1 << 20, 100
	swap(t, env, a, b, pattern(bulk, 1), pattern(bulk, 2))
	msgs := pattern(echoes*64, 3)
	sa, sb := transport.Stream{Env: env, Conn: a}, transport.Stream{Env: env, Conn: b}
	got := make([]byte, 64)
	for i := 0; i < echoes; i++ {
		msg := msgs[i*64 : (i+1)*64]
		if _, err := sa.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(sb, got); err != nil {
			t.Fatalf("echo %d forward: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("echo %d forward: got %x, want %x", i, got, msg)
		}
		if _, err := sb.Write(got); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(sa, got); err != nil {
			t.Fatalf("echo %d reverse: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("echo %d reverse: got %x, want %x", i, got, msg)
		}
	}
	_ = a.Close(env)
	_ = b.Close(env)

	want := int64(2*bulk + 2*echoes*64)
	if !waitFor(func() bool { return outer.Stats().Bytes == want && inner.Stats().Bytes == want }) {
		t.Errorf("relayed bytes outer=%d inner=%d, want %d each", outer.Stats().Bytes, inner.Stats().Bytes, want)
	}
	if !waitFor(func() bool { return runtime.NumGoroutine() <= start }) {
		t.Errorf("%d goroutines after close, %d before the connection", runtime.NumGoroutine(), start)
	}
}

// TestTCPSplicedRelayEnds checks how a spliced direction ends, across both
// relays: a clean close after bulk reads as EOF at the far end, an abort
// mid-bulk as ErrReset.
func TestTCPSplicedRelayEnds(t *testing.T) {
	cfg, _, _ := startTCPProxy(t, RelayConfig{})
	env := transport.NewTCPEnv("localhost")
	const bulk = 256 << 10
	data := pattern(bulk, 4)
	for _, tc := range []struct {
		name string
		end  func(transport.Conn) error
		want error
	}{
		{"close", func(c transport.Conn) error { return c.Close(env) }, io.EOF},
		{"abort", func(c transport.Conn) error { return transport.Abort(env, c) }, transport.ErrReset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := proxiedPair(t, env, cfg, true)
			defer b.Close(env)
			wrote := make(chan error, 1)
			go func() {
				_, err := a.Write(env, data)
				wrote <- err
			}()
			// Half the bulk read, the rest in flight or in buffers.
			got := make([]byte, bulk)
			sb := transport.Stream{Env: env, Conn: b}
			if _, err := io.ReadFull(sb, got[:bulk/2]); err != nil {
				t.Fatal(err)
			}
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			if err := tc.end(a); err != nil {
				t.Fatal(err)
			}
			n, err := io.ReadFull(sb, got[bulk/2:])
			for extra := make([]byte, 1); err == nil; {
				_, err = b.Read(env, extra)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("far end read after %s = %v, want %v", tc.name, err, tc.want)
			}
			if tc.want == io.EOF && (n != bulk/2 || !bytes.Equal(got, data)) {
				t.Fatalf("far end read %d of %d bytes after close, or other bytes than sent", bulk/2+n, bulk)
			}
		})
	}
}

func TestDialerFallsBackToDirect(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(env)
	env.Spawn("srv", func(e transport.Env) {
		for {
			c, err := l.Accept(e)
			if err != nil {
				return
			}
			_ = c.Close(e)
		}
	})
	d := Dialer{} // no proxy configured
	c, err := d.Dial(env, l.Addr())
	if err != nil {
		t.Fatalf("direct dial via Dialer: %v", err)
	}
	_ = c.Close(env)
	dl, err := d.Listen(env, 0)
	if err != nil {
		t.Fatalf("direct listen via Dialer: %v", err)
	}
	host, _, _ := transport.SplitAddr(dl.Addr())
	if host != "localhost" {
		t.Fatalf("direct listener advertises %q", dl.Addr())
	}
	_ = dl.Close(env)
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("empty config enabled")
	}
	if (Config{OuterServer: "o:1"}).Enabled() {
		t.Fatal("half config enabled")
	}
	if !(Config{OuterServer: "o:1", InnerServer: "i:2"}).Enabled() {
		t.Fatal("full config disabled")
	}
}
