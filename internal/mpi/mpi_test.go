package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nxcluster/internal/firewall"
	"nxcluster/internal/proxy"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// tcpWorld builds an n-rank world of goroutines on loopback TCP.
func tcpWorld(n int) *World {
	pls := make([]Placement, n)
	for i := range pls {
		env := transport.NewTCPEnv("localhost")
		pls[i] = Placement{Name: fmt.Sprintf("local%d", i), Spawn: env.Spawn}
	}
	return NewWorld(pls)
}

// simWorld builds an n-rank world on a single simulated LAN.
func simWorld(t *testing.T, n int) (*sim.Kernel, *World) {
	k := sim.New()
	net := simnet.New(k)
	net.AddRouter("sw", "")
	pls := make([]Placement, n)
	for i := range pls {
		name := fmt.Sprintf("node%d", i)
		net.AddHost(name, simnet.HostConfig{})
		net.Connect(name, "sw", simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: 12 << 20})
		pls[i] = Placement{Name: name, Spawn: net.Node(name).SpawnOn}
	}
	return k, NewWorld(pls)
}

func TestPingPongTCP(t *testing.T) {
	w := tcpWorld(2)
	w.Launch(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 7, []byte("ping")); err != nil {
				return err
			}
			m, err := c.Recv(1, 8)
			if err != nil {
				return err
			}
			if string(m.Data) != "pong" {
				return fmt.Errorf("got %q", m.Data)
			}
			return nil
		}
		m, err := c.Recv(0, 7)
		if err != nil {
			return err
		}
		if string(m.Data) != "ping" {
			return fmt.Errorf("got %q", m.Data)
		}
		return c.Send(0, 8, []byte("pong"))
	})
	w.Wait()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestWildcardRecvTCP(t *testing.T) {
	w := tcpWorld(4)
	w.Launch(func(c *Comm) error {
		if c.Rank() == 0 {
			seen := map[int]bool{}
			for i := 1; i < c.Size(); i++ {
				m, err := c.Recv(AnySource, AnyTag)
				if err != nil {
					return err
				}
				if seen[m.Src] {
					return fmt.Errorf("duplicate message from %d", m.Src)
				}
				seen[m.Src] = true
				if m.Tag != m.Src+10 {
					return fmt.Errorf("src %d tag %d", m.Src, m.Tag)
				}
			}
			return nil
		}
		return c.Send(0, c.Rank()+10, []byte{byte(c.Rank())})
	})
	w.Wait()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectiveRecvLeavesOthersPending(t *testing.T) {
	w := tcpWorld(2)
	w.Launch(func(c *Comm) error {
		if c.Rank() == 1 {
			if err := c.Send(0, 1, []byte("first")); err != nil {
				return err
			}
			return c.Send(0, 2, []byte("second"))
		}
		// Receive tag 2 first even though tag 1 arrives first.
		m2, err := c.Recv(1, 2)
		if err != nil {
			return err
		}
		if string(m2.Data) != "second" {
			return fmt.Errorf("tag2 = %q", m2.Data)
		}
		m1, err := c.Recv(1, 1)
		if err != nil {
			return err
		}
		if string(m1.Data) != "first" {
			return fmt.Errorf("tag1 = %q", m1.Data)
		}
		return nil
	})
	w.Wait()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidUserTagRejected(t *testing.T) {
	w := tcpWorld(1)
	w.Launch(func(c *Comm) error {
		if err := c.Send(0, -5, nil); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("Send(-5) = %v", err)
		}
		if _, err := c.Recv(0, -5); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("Recv(-5) = %v", err)
		}
		return nil
	})
	w.Wait()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesSim(t *testing.T) {
	k, w := simWorld(t, 5)
	w.Launch(func(c *Comm) error {
		// Bcast
		var data []byte
		if c.Rank() == 2 {
			data = []byte("from-two")
		}
		got, err := c.Bcast(2, data)
		if err != nil {
			return err
		}
		if string(got) != "from-two" {
			return fmt.Errorf("bcast got %q", got)
		}
		// Reduce: sum of ranks = 10
		sum, err := c.ReduceInt64(0, int64(c.Rank()), OpSum)
		if err != nil {
			return err
		}
		if c.Rank() == 0 && sum != 10 {
			return fmt.Errorf("reduce sum = %d", sum)
		}
		// Allreduce max
		max, err := c.AllreduceInt64(int64(c.Rank()), OpMax)
		if err != nil {
			return err
		}
		if max != 4 {
			return fmt.Errorf("allreduce max = %d", max)
		}
		// Gather
		parts, err := c.Gather(0, []byte{byte('a' + c.Rank())})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			for i, p := range parts {
				if string(p) != string(rune('a'+i)) {
					return fmt.Errorf("gather[%d] = %q", i, p)
				}
			}
		}
		return c.Barrier()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizesVirtualTime(t *testing.T) {
	k, w := simWorld(t, 3)
	exits := make([]time.Duration, 3)
	w.Launch(func(c *Comm) error {
		// Stagger arrival; all must leave at (or after) the last arrival.
		c.Env().Sleep(time.Duration(c.Rank()) * time.Second)
		if err := c.Barrier(); err != nil {
			return err
		}
		exits[c.Rank()] = c.Env().Now()
		return nil
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	for r, e := range exits {
		if e < 2*time.Second {
			t.Fatalf("rank %d left barrier at %v, before last arrival", r, e)
		}
	}
}

func TestIprobeSim(t *testing.T) {
	k, w := simWorld(t, 2)
	w.Launch(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Env().Sleep(time.Second)
			return c.Send(0, 3, []byte("x"))
		}
		if c.Iprobe(1, 3) {
			return errors.New("Iprobe true before send")
		}
		// Poll until it shows up.
		for !c.Iprobe(AnySource, AnyTag) {
			c.Env().Sleep(100 * time.Millisecond)
		}
		m, err := c.Recv(1, 3)
		if err != nil {
			return err
		}
		if string(m.Data) != "x" {
			return fmt.Errorf("got %q", m.Data)
		}
		return nil
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestPerSourceOrderingSim(t *testing.T) {
	k, w := simWorld(t, 2)
	const n = 100
	w.Launch(func(c *Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < n; i++ {
				if err := c.Send(0, 1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			m, err := c.Recv(1, 1)
			if err != nil {
				return err
			}
			if m.Data[0] != byte(i) {
				return fmt.Errorf("message %d out of order (got %d)", i, m.Data[0])
			}
		}
		return nil
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestPingPongAllocs pins the simulated MPI stack's host-side cost: what one
// 64-byte round trip allocates, the world's set-up taken out by difference
// (a run of 2n round trips against a run of n). The count is process-wide,
// so a few stray allocations of other goroutines pass. Each of the two
// messages costs one: the frame's payload, which the receiving rank keeps.
// The send buffer and frame, the Buffer the handler reads through and the
// inbox's Message records are reused, the Nexus reader runs in place and the
// kernel's waiters are pooled.
func TestPingPongAllocs(t *testing.T) {
	run := func(rounds int) float64 {
		return testing.AllocsPerRun(1, func() {
			k, w := simWorld(t, 2)
			payload := make([]byte, 64)
			w.Launch(func(c *Comm) error {
				peer := 1 - c.Rank()
				for i := 0; i < rounds; i++ {
					if c.Rank() == 0 {
						if err := c.Send(peer, 1, payload); err != nil {
							return err
						}
					}
					if _, err := c.Recv(peer, 1); err != nil {
						return err
					}
					if c.Rank() == 1 {
						if err := c.Send(peer, 1, payload); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			k.Shutdown()
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 1000
	if per := (run(2*n) - run(n)) / n; per > 2.01 {
		t.Errorf("%.2f allocations per round trip, want <= 2", per)
	}
}

func TestMessageLatencyReflectsTopology(t *testing.T) {
	// Two hosts 50ms apart: a ping-pong round trip costs >= 100ms virtual.
	k := sim.New()
	net := simnet.New(k)
	net.AddHost("a", simnet.HostConfig{})
	net.AddHost("b", simnet.HostConfig{})
	net.Connect("a", "b", simnet.LinkConfig{Latency: 50 * time.Millisecond})
	w := NewWorld([]Placement{
		{Name: "a", Spawn: net.Node("a").SpawnOn},
		{Name: "b", Spawn: net.Node("b").SpawnOn},
	})
	var rtt time.Duration
	w.Launch(func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Barrier(); err != nil {
				return err
			}
			start := c.Env().Now()
			if err := c.Send(1, 1, []byte("p")); err != nil {
				return err
			}
			if _, err := c.Recv(1, 2); err != nil {
				return err
			}
			rtt = c.Env().Now() - start
			return nil
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		return c.Send(0, 2, []byte("q"))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if rtt < 100*time.Millisecond {
		t.Fatalf("rtt = %v, want >= 100ms", rtt)
	}
	if rtt > 150*time.Millisecond {
		t.Fatalf("rtt = %v, implausibly large", rtt)
	}
}

// TestMPIAcrossFirewallViaProxy runs a 3-rank job split across a firewalled
// site and a public site, communicating through the Nexus Proxy — the
// MPICH-G "mpich Globus device which utilizes the Nexus Proxy" configuration
// from the paper's Table 3.
func TestMPIAcrossFirewallViaProxy(t *testing.T) {
	k := sim.New()
	net := simnet.New(k)
	net.AddHost("rwcp-sun", simnet.HostConfig{Site: "rwcp", CPUs: 4})
	net.AddHost("rwcp-inner", simnet.HostConfig{Site: "rwcp"})
	net.AddHost("rwcp-outer", simnet.HostConfig{})
	net.AddHost("etl-sun", simnet.HostConfig{})
	lan := simnet.LinkConfig{Latency: 200 * time.Microsecond, Bandwidth: 12 << 20}
	wan := simnet.LinkConfig{Latency: 2 * time.Millisecond, Bandwidth: 187 << 10}
	net.Connect("rwcp-sun", "rwcp-inner", lan)
	net.Connect("rwcp-inner", "rwcp-outer", lan)
	net.Connect("rwcp-outer", "etl-sun", wan)
	fw := firewall.New("rwcp")
	fw.AllowIncomingPort(7010, "nxport")
	net.SetFirewall("rwcp", fw)

	inner := proxy.NewInnerServer(proxy.RelayConfig{})
	net.Node("rwcp-inner").SpawnDaemonOn("inner", func(env transport.Env) { _ = inner.Serve(env, 7010, nil) })
	outer := proxy.NewOuterServer("rwcp-inner:7010", proxy.RelayConfig{})
	net.Node("rwcp-outer").SpawnDaemonOn("outer", func(env transport.Env) { _ = outer.Serve(env, 7000, nil) })
	cfg := proxy.Config{OuterServer: "rwcp-outer:7000", InnerServer: "rwcp-inner:7010"}

	w := NewWorld([]Placement{
		{Name: "rwcp-sun", Spawn: net.Node("rwcp-sun").SpawnOn, Proxy: cfg},
		{Name: "rwcp-sun", Spawn: net.Node("rwcp-sun").SpawnOn, Proxy: cfg},
		{Name: "etl-sun", Spawn: net.Node("etl-sun").SpawnOn},
	})
	w.Launch(func(c *Comm) error {
		sum, err := c.AllreduceInt64(int64(c.Rank()+1), OpSum)
		if err != nil {
			return err
		}
		if sum != 6 {
			return fmt.Errorf("allreduce = %d, want 6", sum)
		}
		return c.Barrier()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	// The cross-firewall ranks really used the relay.
	if outer.Stats().ConnectRelays == 0 && outer.Stats().BindRelays == 0 {
		t.Fatal("no traffic passed through the proxy")
	}
}

// TestStreamBothWaysTCP streams messages both ways between two ranks on
// loopback TCP, each rank keeping a window of them in flight, and receives
// them in turn through Recv, Iprobe then Recv, and RecvTimeout, checking
// every tag and byte. A rank's inbox records are taken on its Nexus reader's
// goroutine and recycled on the rank's own.
func TestStreamBothWaysTCP(t *testing.T) {
	const n, window = 600, 16
	payload := func(from, i int) []byte {
		b := make([]byte, 1+i%64)
		for j := range b {
			b[j] = byte(from*31 + i + j)
		}
		return b
	}
	w := tcpWorld(2)
	w.Launch(func(c *Comm) error {
		peer := 1 - c.Rank()
		recv := func(i int) error {
			tag := i % 3
			var m Message
			var err error
			switch tag {
			case 0:
				m, err = c.Recv(peer, tag)
			case 1:
				for !c.Iprobe(peer, tag) {
					c.Env().Sleep(10 * time.Microsecond)
				}
				m, err = c.Recv(peer, tag)
			default:
				var ok bool
				if m, ok, err = c.RecvTimeout(peer, tag, 10*time.Second); err == nil && !ok {
					err = fmt.Errorf("message %d timed out", i)
				}
			}
			if err != nil {
				return err
			}
			if m.Src != peer || m.Tag != tag || string(m.Data) != string(payload(peer, i)) {
				return fmt.Errorf("message %d: from %d tag %d data %x, want from %d tag %d data %x",
					i, m.Src, m.Tag, m.Data, peer, tag, payload(peer, i))
			}
			return nil
		}
		for i := 0; i < n+window; i++ {
			if i < n {
				if err := c.Send(peer, i%3, payload(c.Rank(), i)); err != nil {
					return err
				}
			}
			if i >= window {
				if err := recv(i - window); err != nil {
					return err
				}
			}
		}
		return nil
	})
	w.Wait()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}
