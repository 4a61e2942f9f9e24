package simnet

import (
	"errors"
	"io"
	"testing"
	"time"

	"nxcluster/internal/firewall"
	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// twoHosts builds a minimal a--b topology with the given link.
func twoHosts(cfg LinkConfig) (*sim.Kernel, *Network) {
	k := sim.New()
	n := New(k)
	n.AddHost("a", HostConfig{})
	n.AddHost("b", HostConfig{})
	n.Connect("a", "b", cfg)
	return k, n
}

func TestDialRefusedWithoutListener(t *testing.T) {
	k, n := twoHosts(LinkConfig{Latency: time.Millisecond})
	var dialErr error
	n.Node("a").SpawnOn("dialer", func(env transport.Env) {
		_, dialErr = env.Dial("b:9999")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dialErr, transport.ErrRefused) {
		t.Fatalf("dial = %v, want ErrRefused", dialErr)
	}
}

func TestDialUnknownHost(t *testing.T) {
	k, n := twoHosts(LinkConfig{})
	var dialErr error
	n.Node("a").SpawnOn("dialer", func(env transport.Env) {
		_, dialErr = env.Dial("nosuch:1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(dialErr, transport.ErrNoRoute) {
		t.Fatalf("dial = %v, want ErrNoRoute", dialErr)
	}
}

func TestConnectCostsOneRoundTrip(t *testing.T) {
	k, n := twoHosts(LinkConfig{Latency: 10 * time.Millisecond})
	var dialedAt time.Duration
	n.Node("b").SpawnDaemonOn("server", func(env transport.Env) {
		l, err := env.Listen(7000)
		if err != nil {
			t.Error(err)
			return
		}
		for {
			if _, err := l.Accept(env); err != nil {
				return
			}
		}
	})
	n.Node("a").SpawnOn("dialer", func(env transport.Env) {
		env.Sleep(time.Millisecond) // let server bind
		start := env.Now()
		if _, err := env.Dial("b:7000"); err != nil {
			t.Error(err)
			return
		}
		dialedAt = env.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dialedAt != 20*time.Millisecond {
		t.Fatalf("dial took %v, want 20ms (one RTT)", dialedAt)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	k, n := twoHosts(LinkConfig{Latency: 5 * time.Millisecond})
	payload := []byte("hello wide area world")
	var got []byte
	n.Node("b").SpawnDaemonOn("echo", func(env transport.Env) {
		l, _ := env.Listen(7)
		for {
			c, err := l.Accept(env)
			if err != nil {
				return
			}
			env.Spawn("echo-conn", func(env transport.Env) {
				buf := make([]byte, 64)
				for {
					nn, err := c.Read(env, buf)
					if err != nil {
						return
					}
					if _, err := c.Write(env, buf[:nn]); err != nil {
						return
					}
				}
			})
		}
	})
	n.Node("a").SpawnOn("client", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		c, err := env.Dial("b:7")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(env, payload); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, len(payload))
		if _, err := io.ReadFull(transport.Stream{Env: env, Conn: c}, buf); err != nil {
			t.Error(err)
			return
		}
		got = buf
		_ = c.Close(env)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("echo = %q, want %q", got, payload)
	}
}

func TestBandwidthBoundsTransferTime(t *testing.T) {
	// 1 MB over a 1 MB/s link must take ~1s of serialization + latency.
	const mb = 1 << 20
	k, n := twoHosts(LinkConfig{Latency: 10 * time.Millisecond, Bandwidth: mb})
	var elapsed time.Duration
	n.Node("b").SpawnDaemonOn("sink", func(env transport.Env) {
		l, _ := env.Listen(9)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 64*1024)
		total := 0
		for total < mb {
			nn, err := c.Read(env, buf)
			if err != nil {
				t.Errorf("sink read: %v", err)
				return
			}
			total += nn
		}
		// Acknowledge completion with one byte.
		_, _ = c.Write(env, []byte{1})
	})
	n.Node("a").SpawnOn("source", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		c, err := env.Dial("b:9")
		if err != nil {
			t.Error(err)
			return
		}
		start := env.Now()
		data := make([]byte, mb)
		if _, err := c.Write(env, data); err != nil {
			t.Error(err)
			return
		}
		one := make([]byte, 1)
		if _, err := io.ReadFull(transport.Stream{Env: env, Conn: c}, one); err != nil {
			t.Error(err)
			return
		}
		elapsed = env.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Serialization 1s + ~2x10ms latency; allow the window/segmentation
	// bookkeeping a little slack but insist on the right order.
	if elapsed < time.Second || elapsed > 1500*time.Millisecond {
		t.Fatalf("1MB over 1MB/s took %v, want ~1.02s", elapsed)
	}
}

func TestMultiHopPipelines(t *testing.T) {
	// a -- r -- b: per-segment store-and-forward must pipeline, so a large
	// transfer over two hops takes roughly one serialization time plus the
	// sum of latencies, not twice the serialization time.
	const rate = 1 << 20 // 1 MB/s per link
	const size = 1 << 20
	k := sim.New()
	n := New(k)
	n.AddHost("a", HostConfig{})
	n.AddRouter("r", "")
	n.AddHost("b", HostConfig{})
	n.Connect("a", "r", LinkConfig{Latency: time.Millisecond, Bandwidth: rate})
	n.Connect("r", "b", LinkConfig{Latency: time.Millisecond, Bandwidth: rate})
	var elapsed time.Duration
	n.Node("b").SpawnDaemonOn("sink", func(env transport.Env) {
		l, _ := env.Listen(9)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 64*1024)
		total := 0
		for total < size {
			nn, err := c.Read(env, buf)
			if err != nil {
				return
			}
			total += nn
		}
		_, _ = c.Write(env, []byte{1})
	})
	n.Node("a").SpawnOn("source", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		c, err := env.Dial("b:9")
		if err != nil {
			t.Error(err)
			return
		}
		start := env.Now()
		if _, err := c.Write(env, make([]byte, size)); err != nil {
			t.Error(err)
			return
		}
		one := make([]byte, 1)
		if _, err := io.ReadFull(transport.Stream{Env: env, Conn: c}, one); err != nil {
			t.Error(err)
			return
		}
		elapsed = env.Now() - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed > 1600*time.Millisecond {
		t.Fatalf("two-hop 1MB took %v; store-and-forward did not pipeline", elapsed)
	}
}

func TestPathBandwidthBottleneck(t *testing.T) {
	k := sim.New()
	n := New(k)
	n.AddHost("a", HostConfig{})
	n.AddRouter("r", "")
	n.AddHost("b", HostConfig{})
	n.Connect("a", "r", LinkConfig{Bandwidth: 10 << 20})
	n.Connect("r", "b", LinkConfig{Bandwidth: 187 << 10}) // ~1.5 Mbps
	bw, err := n.PathBandwidth("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if bw != 187<<10 {
		t.Fatalf("bottleneck = %d, want %d", bw, 187<<10)
	}
}

func TestFirewallBlocksIncomingDial(t *testing.T) {
	k := sim.New()
	n := New(k)
	n.AddHost("inside", HostConfig{Site: "rwcp"})
	n.AddHost("outside", HostConfig{})
	n.Connect("inside", "outside", LinkConfig{Latency: time.Millisecond})
	n.SetFirewall("rwcp", firewall.New("rwcp"))

	var inErr, outErr error
	n.Node("inside").SpawnDaemonOn("server", func(env transport.Env) {
		l, _ := env.Listen(5000)
		_, _ = l.Accept(env)
	})
	n.Node("outside").SpawnDaemonOn("server", func(env transport.Env) {
		l, _ := env.Listen(5000)
		for {
			if _, err := l.Accept(env); err != nil {
				return
			}
		}
	})
	n.Node("outside").SpawnOn("attacker", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		_, inErr = env.Dial("inside:5000")
	})
	n.Node("inside").SpawnOn("insider", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		_, outErr = env.Dial("outside:5000")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(inErr, transport.ErrFirewallDenied) {
		t.Fatalf("incoming dial = %v, want ErrFirewallDenied", inErr)
	}
	if outErr != nil {
		t.Fatalf("outgoing dial = %v, want success (allow-based outgoing)", outErr)
	}
	if n.Firewall("rwcp").DeniedCount() != 1 {
		t.Fatalf("denied count = %d, want 1", n.Firewall("rwcp").DeniedCount())
	}
	k.Shutdown()
}

func TestFirewallOpenedPortAdmitsDial(t *testing.T) {
	k := sim.New()
	n := New(k)
	n.AddHost("inner", HostConfig{Site: "rwcp"})
	n.AddHost("outer", HostConfig{})
	n.Connect("inner", "outer", LinkConfig{Latency: time.Millisecond})
	fw := firewall.New("rwcp")
	fw.AllowIncomingPort(7010, "nxport")
	n.SetFirewall("rwcp", fw)

	var err7010 error
	accepted := false
	n.Node("inner").SpawnDaemonOn("inner-server", func(env transport.Env) {
		l, _ := env.Listen(7010)
		if _, err := l.Accept(env); err == nil {
			accepted = true
		}
	})
	n.Node("outer").SpawnOn("outer-client", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		_, err7010 = env.Dial("inner:7010")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err7010 != nil {
		t.Fatalf("dial to opened nxport failed: %v", err7010)
	}
	if !accepted {
		t.Fatal("inner server never accepted")
	}
}

func TestSameSiteTrafficBypassesFirewall(t *testing.T) {
	k := sim.New()
	n := New(k)
	n.AddHost("h1", HostConfig{Site: "rwcp"})
	n.AddHost("h2", HostConfig{Site: "rwcp"})
	n.Connect("h1", "h2", LinkConfig{Latency: time.Microsecond})
	n.SetFirewall("rwcp", firewall.New("rwcp"))
	var err error
	n.Node("h2").SpawnDaemonOn("srv", func(env transport.Env) {
		l, _ := env.Listen(80)
		_, _ = l.Accept(env)
	})
	n.Node("h1").SpawnOn("cli", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		_, err = env.Dial("h2:80")
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatalf("intra-site dial failed: %v", err)
	}
}

func TestCloseGivesEOFAfterDrain(t *testing.T) {
	k, n := twoHosts(LinkConfig{Latency: time.Millisecond})
	var readErr error
	var got int
	n.Node("b").SpawnDaemonOn("srv", func(env transport.Env) {
		l, _ := env.Listen(1)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		for {
			nn, err := c.Read(env, buf)
			got += nn
			if err != nil {
				readErr = err
				return
			}
		}
	})
	n.Node("a").SpawnOn("cli", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		c, err := env.Dial("b:1")
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = c.Write(env, []byte("bye"))
		_ = c.Close(env)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if got != 3 {
		t.Fatalf("read %d bytes before EOF, want 3", got)
	}
	if !errors.Is(readErr, io.EOF) {
		t.Fatalf("read error = %v, want io.EOF", readErr)
	}
}

func TestWriteAfterPeerCloseFails(t *testing.T) {
	k, n := twoHosts(LinkConfig{Latency: time.Millisecond})
	var werr error
	n.Node("b").SpawnDaemonOn("srv", func(env transport.Env) {
		l, _ := env.Listen(1)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		_ = c.Close(env)
	})
	n.Node("a").SpawnOn("cli", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		c, err := env.Dial("b:1")
		if err != nil {
			t.Error(err)
			return
		}
		env.Sleep(10 * time.Millisecond) // let the FIN arrive
		_, werr = c.Write(env, []byte("x"))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(werr, transport.ErrClosed) {
		t.Fatalf("write after peer close = %v, want ErrClosed", werr)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	k, n := twoHosts(LinkConfig{})
	var acceptErr error
	n.Node("a").SpawnOn("srv", func(env transport.Env) {
		l, _ := env.Listen(1234)
		env.Spawn("closer", func(env2 transport.Env) {
			env2.Sleep(time.Second)
			_ = l.Close(env2)
		})
		_, acceptErr = l.Accept(env)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(acceptErr, transport.ErrClosed) {
		t.Fatalf("Accept after close = %v, want ErrClosed", acceptErr)
	}
}

func TestDuplicatePortRejected(t *testing.T) {
	k, n := twoHosts(LinkConfig{})
	var err2 error
	n.Node("a").SpawnOn("srv", func(env transport.Env) {
		if _, err := env.Listen(80); err != nil {
			t.Error(err)
		}
		_, err2 = env.Listen(80)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err2 == nil {
		t.Fatal("duplicate Listen succeeded")
	}
}

func TestEphemeralPortsDistinct(t *testing.T) {
	k, n := twoHosts(LinkConfig{})
	seen := map[string]bool{}
	n.Node("a").SpawnOn("srv", func(env transport.Env) {
		for i := 0; i < 10; i++ {
			l, err := env.Listen(0)
			if err != nil {
				t.Error(err)
				return
			}
			if seen[l.Addr()] {
				t.Errorf("ephemeral address %s reused", l.Addr())
			}
			seen[l.Addr()] = true
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestComputeScalesWithSpeedAndContends(t *testing.T) {
	k := sim.New()
	n := New(k)
	n.AddHost("fast", HostConfig{Speed: 2.0, CPUs: 1})
	n.AddHost("slow", HostConfig{Speed: 0.5, CPUs: 1})
	var fastT, slowT time.Duration
	n.Node("fast").SpawnOn("w", func(env transport.Env) {
		env.Compute(time.Second)
		fastT = env.Now()
	})
	n.Node("slow").SpawnOn("w", func(env transport.Env) {
		env.Compute(time.Second)
		slowT = env.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fastT != 500*time.Millisecond {
		t.Fatalf("fast host compute took %v, want 500ms", fastT)
	}
	if slowT != 2*time.Second {
		t.Fatalf("slow host compute took %v, want 2s", slowT)
	}

	// Two workers on a 1-CPU host serialize; on a 2-CPU host they overlap.
	k2 := sim.New()
	n2 := New(k2)
	n2.AddHost("uni", HostConfig{CPUs: 1})
	n2.AddHost("duo", HostConfig{CPUs: 2})
	var uniEnd, duoEnd time.Duration
	for i := 0; i < 2; i++ {
		n2.Node("uni").SpawnOn("w", func(env transport.Env) {
			env.Compute(time.Second)
			if env.Now() > uniEnd {
				uniEnd = env.Now()
			}
		})
		n2.Node("duo").SpawnOn("w", func(env transport.Env) {
			env.Compute(time.Second)
			if env.Now() > duoEnd {
				duoEnd = env.Now()
			}
		})
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if uniEnd != 2*time.Second {
		t.Fatalf("1-CPU host finished at %v, want 2s", uniEnd)
	}
	if duoEnd != time.Second {
		t.Fatalf("2-CPU host finished at %v, want 1s", duoEnd)
	}
}

func TestLocalAndRemoteAddrs(t *testing.T) {
	k, n := twoHosts(LinkConfig{})
	n.Node("b").SpawnDaemonOn("srv", func(env transport.Env) {
		l, _ := env.Listen(42)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		if c.LocalAddr() != "b:42" {
			t.Errorf("server LocalAddr = %s, want b:42", c.LocalAddr())
		}
		host, _, err := transport.SplitAddr(c.RemoteAddr())
		if err != nil || host != "a" {
			t.Errorf("server RemoteAddr = %s, want a:*", c.RemoteAddr())
		}
	})
	n.Node("a").SpawnOn("cli", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		c, err := env.Dial("b:42")
		if err != nil {
			t.Error(err)
			return
		}
		if c.RemoteAddr() != "b:42" {
			t.Errorf("client RemoteAddr = %s, want b:42", c.RemoteAddr())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSameHostDial(t *testing.T) {
	k, n := twoHosts(LinkConfig{Latency: time.Millisecond})
	var got string
	n.Node("a").SpawnDaemonOn("srv", func(env transport.Env) {
		l, _ := env.Listen(99)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 5)
		if _, err := io.ReadFull(transport.Stream{Env: env, Conn: c}, buf); err == nil {
			got = string(buf)
		}
	})
	n.Node("a").SpawnOn("cli", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		c, err := env.Dial("a:99")
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = c.Write(env, []byte("local"))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if got != "local" {
		t.Fatalf("same-host payload = %q, want %q", got, "local")
	}
}
