package proxy

import (
	"errors"
	"io"
	"strings"
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

func TestTCPLargeTransferIntegrity(t *testing.T) {
	cfg, _, _ := startTCPProxy(t, RelayConfig{BufBytes: 1024})
	env := transport.NewTCPEnv("localhost")

	dst, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close(env)
	const size = 1 << 20
	sum := make(chan byte, 1)
	env.Spawn("sink", func(e transport.Env) {
		c, err := dst.Accept(e)
		if err != nil {
			return
		}
		var x byte
		buf := make([]byte, 32*1024)
		total := 0
		for total < size {
			n, err := c.Read(e, buf)
			for _, b := range buf[:n] {
				x ^= b
			}
			total += n
			if err != nil {
				break
			}
		}
		sum <- x
	})

	c, err := NXProxyConnect(env, cfg, dst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	var want byte
	for i := range data {
		data[i] = byte(i * 31)
		want ^= data[i]
	}
	if _, err := c.Write(env, data); err != nil {
		t.Fatal(err)
	}
	if got := <-sum; got != want {
		t.Fatalf("checksum mismatch: got %#x want %#x", got, want)
	}
	_ = c.Close(env)
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
