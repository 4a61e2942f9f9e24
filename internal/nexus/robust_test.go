package nexus

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

// TestGarbageOnListenerIgnored: random bytes on a Nexus context's port must
// not crash the reader or corrupt later traffic.
func TestGarbageOnListenerIgnored(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	ctx, err := Init(env, proxy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Shutdown(env)
	got := make(chan int64, 1)
	ep := ctx.NewEndpoint()
	ep.Register(1, func(e transport.Env, b *Buffer) {
		v, _ := b.GetInt64()
		got <- v
	})

	// Garbage connection: a huge bogus frame header then EOF.
	g, err := env.Dial(ctx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = g.Write(env, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	_ = g.Close(env)

	// A well-formed RSR still goes through.
	sp, err := ctx.Attach(env, ep.Address())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer()
	b.PutInt64(31337)
	if err := sp.Send(env, 1, b); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 31337 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RSR lost after garbage connection")
	}
}

// TestOversizedFrameHeaderBounded: a 12-byte RSR header announcing a 1 GiB
// payload must not make the reader allocate it. The reader drops the frame
// and closes that connection before any payload byte arrives, and a later
// well-formed RSR on another connection still arrives.
func TestOversizedFrameHeaderBounded(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	ctx, err := Init(env, proxy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Shutdown(env)
	got := make(chan int64, 1)
	ep := ctx.NewEndpoint()
	ep.Register(1, func(e transport.Env, b *Buffer) {
		v, _ := b.GetInt64()
		got <- v
	})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := env.Dial(ctx.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close(env)
	hdr := []byte{0, 0, 0, 1, 0, 0, 0, 1, 0x40, 0, 0, 0}
	if _, err := g.Write(env, hdr); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); ctx.Dropped() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the oversized frame was never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("the oversized header cost %d bytes of allocation, want < 16 MiB", grew)
	}
	// The reader closed the connection: the peer reads EOF.
	if n, err := g.Read(env, make([]byte, 1)); err == nil {
		t.Fatalf("read %d bytes from a connection the reader should have closed", n)
	}

	sp, err := ctx.Attach(env, ep.Address())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuffer()
	b.PutInt64(4242)
	if err := sp.Send(env, 1, b); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != 4242 {
			t.Fatalf("got %d", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RSR lost after the oversized header")
	}
}

// TestFrameHeaderAllocBounded: a control frame's 4-byte header announcing
// 16 MiB, followed by the end of the stream, must cost ReadFrame what
// arrives, not what is announced. Every daemon reads its first frame before
// it authenticates anyone, and a session reads many.
func TestFrameHeaderAllocBounded(t *testing.T) {
	in := []byte{0, 0xff, 0xff, 0xff}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(in), 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) {
		t.Fatalf("ReadFrame on a bare header = %v, want io.EOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
		t.Fatalf("a bare 16 MiB header cost %d bytes of allocation, want < 256 KiB", grew)
	}
}

// TestReadFrameGrows: frames past the first allocation read whole, through
// a reader that hands out a few bytes at a time, and one cut short anywhere
// is an unexpected EOF, as io.ReadFull reports it.
func TestReadFrameGrows(t *testing.T) {
	for _, n := range []int{frameChunk - 1, frameChunk, frameChunk + 1, 5*frameChunk + 7} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		var w bytes.Buffer
		if err := WriteFrame(&w, FromBytes(body)); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(iotest.HalfReader(bytes.NewReader(w.Bytes())), 0)
		if err != nil || !bytes.Equal(got.Bytes(), body) {
			t.Fatalf("%d-byte frame: err = %v, equal = %v", n, err, err == nil && bytes.Equal(got.Bytes(), body))
		}
		for _, cut := range []int{4 + frameChunk/2, 4 + n - 1} {
			if _, err := ReadFrame(bytes.NewReader(w.Bytes()[:cut]), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%d-byte frame cut to %d bytes: err = %v, want io.ErrUnexpectedEOF", n, cut, err)
			}
		}
	}
}

// TestShutdownStopsAccepting: after Shutdown new attaches fail but existing
// startpoints keep working (connections drain on their own).
func TestShutdownStopsAccepting(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	ctx, err := Init(env, proxy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 4)
	ep := ctx.NewEndpoint()
	ep.Register(1, func(e transport.Env, b *Buffer) {
		s, _ := b.GetString()
		got <- s
	})
	sp, err := ctx.Attach(env, ep.Address())
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(msg string) {
		t.Helper()
		b := NewBuffer()
		b.PutString(msg)
		if err := sp.Send(env, 1, b); err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-got:
			if s != msg {
				t.Fatalf("got %q, want %q", s, msg)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%q not delivered", msg)
		}
	}
	// One delivery first, so the listener has accepted the connection: one
	// still in its backlog would be reset by the Shutdown below.
	deliver("established")
	ctx.Shutdown(env)
	ctx.Shutdown(env) // idempotent

	// The pre-existing connection still delivers.
	deliver("still-alive")
	// New attaches fail: the listener is gone.
	if _, err := ctx.Attach(env, ep.Address()); err == nil {
		t.Fatal("attach succeeded after Shutdown")
	}
}

// TestStartpointCloseStopsDelivery: RSRs after Close fail cleanly.
func TestStartpointCloseStopsDelivery(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	ctx, err := Init(env, proxy.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Shutdown(env)
	ep := ctx.NewEndpoint()
	ep.Register(1, func(e transport.Env, b *Buffer) {})
	sp, err := ctx.Attach(env, ep.Address())
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(env); err != nil {
		t.Fatal(err)
	}
	// The write may need a beat for the close to take effect on loopback.
	failed := false
	for i := 0; i < 50; i++ {
		if err := sp.Send(env, 1, NewBuffer()); err != nil {
			failed = true
			break
		}
		env.Sleep(10 * time.Millisecond)
	}
	if !failed {
		t.Fatal("sends kept succeeding on a closed startpoint")
	}
}
