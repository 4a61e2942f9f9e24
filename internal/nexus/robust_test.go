package nexus

import (
	"testing"
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
