package nexus

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

func TestWireFrameRoundTrip(t *testing.T) {
	b := NewBuffer()
	b.PutString("payload")
	b.PutInt64(99)
	var w bytes.Buffer
	if err := WriteFrame(&w, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&w, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := got.GetString()
	v, _ := got.GetInt64()
	if s != "payload" || v != 99 {
		t.Fatalf("round trip = %q, %d", s, v)
	}
}

func TestWireFrameSizeLimit(t *testing.T) {
	b := NewBuffer()
	b.PutBytes(make([]byte, 100))
	var w bytes.Buffer
	if err := WriteFrame(&w, b); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(&w, 10); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestWireFrameTruncated(t *testing.T) {
	b := NewBuffer()
	b.PutString("data")
	var w bytes.Buffer
	_ = WriteFrame(&w, b)
	raw := w.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut]), 0); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestQuickWireRoundTrip(t *testing.T) {
	prop := func(payload []byte) bool {
		b := NewBuffer()
		b.PutBytes(payload)
		var w bytes.Buffer
		if err := WriteFrame(&w, b); err != nil {
			return false
		}
		got, err := ReadFrame(&w, 0)
		if err != nil {
			return false
		}
		data, err := got.GetBytes()
		return err == nil && bytes.Equal(data, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// tcpPair returns both ends of one loopback TCPEnv connection.
func tcpPair(t *testing.T, env transport.Env) (dialed, accepted transport.Conn) {
	t.Helper()
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close(env) })
	acc := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept(env)
		if err != nil {
			t.Error(err)
		}
		acc <- c
	}()
	dialed, err = env.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	accepted = <-acc
	if accepted == nil {
		t.FailNow()
	}
	t.Cleanup(func() { _ = dialed.Close(env); _ = accepted.Close(env) })
	return dialed, accepted
}

// filled is a buffer of n bytes, each b.
func filled(b byte, n int) *Buffer { return FromBytes(bytes.Repeat([]byte{b}, n)) }

// TestWriteFrameOneSegmentTCP checks that a frame goes onto a real
// socket in one write: a raw Read already waiting on the accepting side
// gets the length and the body together.
func TestWriteFrameOneSegmentTCP(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	dialed, accepted := tcpPair(t, env)
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 512)
		n, err := accepted.Read(env, buf)
		if err != nil {
			t.Error(err)
		}
		got <- buf[:n]
	}()
	time.Sleep(10 * time.Millisecond) // let the Read block first
	if err := WriteFrame(transport.Stream{Env: env, Conn: dialed}, filled(7, 100)); err != nil {
		t.Fatal(err)
	}
	raw := <-got
	want := append([]byte{0, 0, 0, 100}, filled(7, 100).Bytes()...)
	if !bytes.Equal(raw, want) {
		t.Fatalf("one Read got %d bytes, want the whole %d-byte frame", len(raw), len(want))
	}
}

// TestWriteFrameTwoSegmentsOnSimnet checks that simnet still carries a frame
// as its length and its body, two segments a Read returns one at a time:
// the segment count is part of every simulated run's events.
func TestWriteFrameTwoSegmentsOnSimnet(t *testing.T) {
	k := sim.New()
	n := simnet.New(k)
	n.AddHost("a", simnet.HostConfig{})
	n.AddHost("b", simnet.HostConfig{})
	n.Connect("a", "b", simnet.LinkConfig{Latency: time.Millisecond, Bandwidth: 12 << 20})
	var reads []int
	n.Node("b").SpawnDaemonOn("b", func(env transport.Env) {
		l, err := env.Listen(7000)
		if err != nil {
			t.Error(err)
			return
		}
		c, err := l.Accept(env)
		if err != nil {
			t.Error(err)
			return
		}
		env.Sleep(time.Second) // both segments have landed
		buf := make([]byte, 512)
		for len(reads) < 2 {
			m, err := c.Read(env, buf)
			if err != nil {
				t.Error(err)
				return
			}
			reads = append(reads, m)
		}
	})
	n.Node("a").SpawnOn("a", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		c, err := env.Dial("b:7000")
		if err != nil {
			t.Error(err)
			return
		}
		if err := WriteFrame(transport.Stream{Env: env, Conn: c}, filled(7, 100)); err != nil {
			t.Error(err)
		}
		env.Sleep(2 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(reads) != 2 || reads[0] != 4 || reads[1] != 100 {
		t.Fatalf("reads = %v, want [4 100]", reads)
	}
}

// TestWriteFrameLargeTCP round-trips a frame far above the size
// WriteFrame joins into one write.
func TestWriteFrameLargeTCP(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	dialed, accepted := tcpPair(t, env)
	body := make([]byte, 1<<20)
	for i := range body {
		body[i] = byte(i * 7)
	}
	errc := make(chan error, 1)
	go func() { errc <- WriteFrame(transport.Stream{Env: env, Conn: dialed}, FromBytes(body)) }()
	got, err := ReadFrame(transport.Stream{Env: env, Conn: accepted}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), body) {
		t.Fatal("1 MiB frame changed in transit")
	}
}

// TestWriteFrameConcurrentTCP has writers on separate connections share
// WriteFrame's pooled buffers: every frame must arrive whole and carry only
// its own writer's bytes. Run under -race it also checks the pool's use.
func TestWriteFrameConcurrentTCP(t *testing.T) {
	const writers, frames = 4, 200
	env := transport.NewTCPEnv("localhost")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		dialed, accepted := tcpPair(t, env)
		id := byte('A' + w)
		wg.Add(2)
		go func() {
			defer wg.Done()
			st := transport.Stream{Env: env, Conn: dialed}
			for i := 0; i < frames; i++ {
				if err := WriteFrame(st, filled(id, 1+i*37%3000)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			st := transport.Stream{Env: env, Conn: accepted}
			for i := 0; i < frames; i++ {
				got, err := ReadFrame(st, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), filled(id, 1+i*37%3000).Bytes()) {
					t.Errorf("writer %c frame %d arrived as %q", id, i, got.Bytes())
					return
				}
			}
		}()
	}
	wg.Wait()
}
