package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// blockingEnv is an Env whose in-place drivers decline, so transport's
// blocking loops run instead.
type blockingEnv struct{ *Env }

func (blockingEnv) ReadEach(transport.Conn, func(int) []byte) (bool, error) { return false, nil }

func (blockingEnv) Relay(transport.Conn, transport.Conn, *transport.Pump) (bool, error) {
	return false, nil
}

// readEachRun streams seeded writes from a to b, where transport.ReadEach
// hands out seeded slice sizes, and logs every fill and how the read ended.
// The writer ends the stream with a Close, an Abort, or by its host
// crashing mid-stream.
func readEachRun(t *testing.T, seed uint64, blocking bool) []string {
	k := sim.New()
	k.Seed(seed)
	rnd := func(n uint64) uint64 { return k.Rand() % n }
	n := New(k)
	n.MTU = 128 + int(rnd(4096))
	n.AddHost("a", HostConfig{})
	n.AddHost("b", HostConfig{})
	n.Connect("a", "b", LinkConfig{Latency: time.Duration(1+rnd(1000)) * time.Microsecond, Bandwidth: 1 << 20})
	ending := rnd(3)
	if ending == 2 {
		k.After(time.Duration(1+rnd(30))*time.Millisecond, func() { _ = n.CrashHost("a") })
	}
	var log []string
	n.Node("b").SpawnDaemonOn("b", func(env transport.Env) {
		l, _ := env.Listen(1)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		if blocking {
			env = blockingEnv{env.(*Env)}
		}
		buf := make([]byte, 1+rnd(6000))
		left := 50 + int(rnd(100))
		err = transport.ReadEach(env, c, func(m int) []byte {
			log = append(log, fmt.Sprint(env.Now(), " ", m))
			if left--; left == 0 {
				return nil
			}
			return buf[:1+rnd(uint64(len(buf)))]
		})
		log = append(log, fmt.Sprint(env.Now(), " end ", err))
	})
	n.Node("a").SpawnOn("a", func(env transport.Env) {
		c, err := env.Dial("b:1")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 1+int(rnd(20)); i++ {
			if _, err := c.Write(env, make([]byte, 1+rnd(10000))); err != nil {
				return
			}
			env.Sleep(time.Duration(rnd(2000)) * time.Microsecond)
		}
		if ending == 1 {
			_ = transport.Abort(env, c)
			return
		}
		_ = c.Close(env)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	log = append(log, fmt.Sprint("events ", k.Events(), " at ", k.Now()))
	k.Shutdown()
	return log
}

// TestReadEachInPlace: the in-place reader fills what the Read loop does, at
// the same instants, and hands back the same end (fill's stop, EOF, or the
// reset of an aborted or crashed writer) with the same events.
func TestReadEachInPlace(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		want := readEachRun(t, seed, true)
		if got := readEachRun(t, seed, false); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: in place\n%q\nRead loop\n%q", seed, got, want)
		}
	}
}

// foreignConn hides a simnet conn's type, as another network's Conn would.
type foreignConn struct{ transport.Conn }

// TestRelayInPlaceDeclinesForeignConns: a relay leg that is not a simnet
// conn sends transport.Relay down its blocking loop, which relays the same
// bytes.
func TestRelayInPlaceDeclinesForeignConns(t *testing.T) {
	k := sim.New()
	n := New(k)
	for _, h := range []string{"a", "r", "b"} {
		n.AddHost(h, HostConfig{})
	}
	n.Connect("a", "r", LinkConfig{Latency: time.Millisecond, Bandwidth: 1 << 20})
	n.Connect("r", "b", LinkConfig{Latency: time.Millisecond, Bandwidth: 1 << 20})
	sent := bytes.Repeat([]byte("relay"), 3000)
	var got []byte
	var relayErr error
	n.Node("r").SpawnDaemonOn("r", func(env transport.Env) {
		l, _ := env.Listen(1)
		src, err := l.Accept(env)
		if err != nil {
			return
		}
		dst, err := env.Dial("b:1")
		if err != nil {
			t.Error(err)
			return
		}
		if done, _ := env.(*Env).Relay(foreignConn{src}, dst, &transport.Pump{}); done {
			t.Error("the in-place relay took a foreign conn")
		}
		relayErr = transport.Relay(env, foreignConn{src}, dst, &transport.Pump{Buf: make([]byte, 700), PerBuffer: time.Microsecond})
		_ = dst.Close(env)
	})
	n.Node("b").SpawnDaemonOn("b", func(env transport.Env) {
		l, _ := env.Listen(1)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 1000)
		for {
			m, err := c.Read(env, buf)
			got = append(got, buf[:m]...)
			if err != nil {
				return
			}
		}
	})
	n.Node("a").SpawnOn("a", func(env transport.Env) {
		c, err := env.Dial("r:1")
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = c.Write(env, sent)
		_ = c.Close(env)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if relayErr != nil || !bytes.Equal(got, sent) {
		t.Fatalf("relay ended with %v after %d of %d bytes", relayErr, len(got), len(sent))
	}
}

// TestRelayInPlaceZeroAlloc: once the pools are warm, relaying a buffer in
// place — read, the per-buffer CPU charge, write — allocates nothing, with
// the writer and reader at either end included.
func TestRelayInPlaceZeroAlloc(t *testing.T) {
	k := sim.New()
	n := New(k)
	for _, h := range []string{"a", "r", "b"} {
		n.AddHost(h, HostConfig{})
	}
	n.Connect("a", "r", LinkConfig{Latency: time.Millisecond, Bandwidth: 10 << 20})
	n.Connect("r", "b", LinkConfig{Latency: time.Millisecond, Bandwidth: 10 << 20})
	n.Node("r").SpawnDaemonOn("r", func(env transport.Env) {
		l, _ := env.Listen(1)
		src, err := l.Accept(env)
		if err != nil {
			return
		}
		dst, err := env.Dial("b:1")
		if err != nil {
			t.Error(err)
			return
		}
		_ = transport.Relay(env, src, dst, &transport.Pump{Buf: make([]byte, 4096), PerBuffer: 10 * time.Microsecond})
	})
	n.Node("b").SpawnDaemonOn("b", func(env transport.Env) {
		l, _ := env.Listen(1)
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		buf := make([]byte, 4096)
		for {
			if _, err := c.Read(env, buf); err != nil {
				return
			}
		}
	})
	n.Node("a").SpawnDaemonOn("a", func(env transport.Env) {
		c, err := env.Dial("r:1")
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		for {
			if _, err := c.Write(env, buf); err != nil {
				return
			}
			env.Sleep(100 * time.Microsecond)
		}
	})
	k.RunUntil(50 * time.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + 10*time.Millisecond) }); allocs != 0 {
		t.Fatalf("%v allocs per 100 relayed buffers, want 0", allocs)
	}
	k.Shutdown()
}

// TestRelayInPlaceWriteAfterCreditWait pins what a Write does when the wait
// for credit ends with credit back and the stream reset at the same instant:
// the segment that now fits goes out, and the reset is seen before the next
// one. The relay's write, in place and blocking, does the same.
func TestRelayInPlaceWriteAfterCreditWait(t *testing.T) {
	for _, blocking := range []bool{false, true} {
		k := sim.New()
		n := New(k)
		for _, h := range []string{"a", "r", "b"} {
			n.AddHost(h, HostConfig{})
		}
		n.Connect("a", "r", LinkConfig{Latency: time.Millisecond, Bandwidth: 1 << 20})
		n.Connect("r", "b", LinkConfig{Latency: time.Millisecond, Bandwidth: 1 << 20})
		mtu := n.MTU
		var relayErr error
		received := 0
		n.Node("r").SpawnDaemonOn("r", func(env transport.Env) {
			l, _ := env.Listen(1)
			src, err := l.Accept(env)
			if err != nil {
				return
			}
			dst, err := env.Dial("b:1")
			if err != nil {
				t.Error(err)
				return
			}
			d := dst.(*conn)
			d.credit = 0 // every write waits for credit
			k.After(50*time.Millisecond, func() {
				d.credit, d.remoteReset = mtu, true
				d.creditCond.Broadcast()
			})
			if blocking {
				env = blockingEnv{env.(*Env)}
			}
			relayErr = transport.Relay(env, src, dst, &transport.Pump{Buf: make([]byte, 3*mtu)})
		})
		n.Node("b").SpawnDaemonOn("b", func(env transport.Env) {
			l, _ := env.Listen(1)
			c, err := l.Accept(env)
			if err != nil {
				return
			}
			buf := make([]byte, mtu)
			for {
				m, err := c.Read(env, buf)
				received += m
				if err != nil {
					return
				}
			}
		})
		n.Node("a").SpawnOn("a", func(env transport.Env) {
			c, err := env.Dial("r:1")
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = c.Write(env, make([]byte, 3*mtu))
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		if !errors.Is(relayErr, transport.ErrReset) || received != mtu {
			t.Errorf("blocking=%v: relay ended with %v after %d bytes reached b, want ErrReset after %d", blocking, relayErr, received, mtu)
		}
	}
}
