package transport

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// tcpPair returns both ends of one loopback connection.
func tcpPair(t *testing.T, env *TCPEnv) (dialed, accepted Conn) {
	t.Helper()
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(env)
	ch := make(chan Conn, 1)
	go func() {
		c, _ := l.Accept(env)
		ch <- c
	}()
	dialed, err = env.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if accepted = <-ch; accepted == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		_ = dialed.Close(env)
		_ = accepted.Close(env)
	})
	return dialed, accepted
}

// relayRig is client -> (in) Relay (out) -> server on raw loopback sockets.
// The loop tells Fwd of at most len(Buf) bytes at a time and a spliced
// direction of up to 1 MiB, so the largest count Fwd was told of shows
// whether the direction has moved into the kernel.
type relayRig struct {
	env            *TCPEnv
	client, server Conn
	done           chan error
	fwd, maxFwd    atomic.Int64 // bytes Fwd was told of, and its largest call
}

func startRelay(t *testing.T, pump *Pump) *relayRig {
	env := NewTCPEnv("h")
	client, in := tcpPair(t, env)
	out, server := tcpPair(t, env)
	r := &relayRig{env: env, client: client, server: server, done: make(chan error, 1)}
	pump.Fwd = func(n int) {
		r.fwd.Add(int64(n))
		if int64(n) > r.maxFwd.Load() {
			r.maxFwd.Store(int64(n))
		}
	}
	go func() { r.done <- Relay(env, in, out, pump) }()
	return r
}

// eventually polls cond for up to five seconds and reports whether it held.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// send writes msg from the client and checks the server reads it back whole.
func (r *relayRig) send(t *testing.T, msg []byte) {
	t.Helper()
	wrote := make(chan error, 1)
	go func() {
		_, err := r.client.Write(r.env, msg)
		wrote <- err
	}()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(Stream{Env: r.env, Conn: r.server}, got); err != nil {
		t.Fatalf("server read: %v", err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("client write: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("server read %d bytes other than the %d sent", len(got), len(msg))
	}
}

// TestRelayTCPHandOff drives Relay on raw TCP pairs: 64-byte messages sent
// one at a time never fill the buffer and stay on the read/write loop; bulk
// fills it and, unless the pump charges per buffer or watches arrivals,
// moves the rest of the direction into the kernel, after which small
// messages still arrive whole and in order and Fwd has counted every byte.
func TestRelayTCPHandOff(t *testing.T) {
	const buf = 4096
	for _, tc := range []struct {
		name    string
		pump    Pump
		spliced bool
	}{
		{"plain", Pump{}, true},
		{"per-buffer", Pump{PerBuffer: time.Microsecond}, false},
		{"recv-hook", Pump{Recv: func(int) {}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pump := tc.pump
			pump.Buf = make([]byte, buf)
			r := startRelay(t, &pump)
			rng := rand.New(rand.NewSource(1))
			small := func() {
				msg := make([]byte, 64)
				for i := 0; i < 50; i++ {
					rng.Read(msg)
					r.send(t, msg)
				}
			}
			// On the loop each message is counted as it is written on.
			small()
			if !eventually(func() bool { return r.fwd.Load() == 50*64 }) || r.maxFwd.Load() > buf {
				t.Fatalf("after 64-byte messages Fwd counted %d bytes, at most %d at once; want %d, at most %d",
					r.fwd.Load(), r.maxFwd.Load(), 50*64, buf)
			}
			bulk := make([]byte, 3<<20+7)
			rng.Read(bulk)
			r.send(t, bulk)
			small()
			_ = r.client.Close(r.env)
			if err := <-r.done; err != nil {
				t.Fatalf("Relay after the client closed = %v, want nil", err)
			}
			if got := r.maxFwd.Load() > buf; got != tc.spliced {
				t.Fatalf("Fwd told of at most %d bytes at once after bulk; spliced = %v, want %v", r.maxFwd.Load(), got, tc.spliced)
			}
			if want := int64(2*50*64 + len(bulk)); r.fwd.Load() != want {
				t.Fatalf("Fwd counted %d bytes, want %d", r.fwd.Load(), want)
			}
		})
	}
}

// TestRelayTCPResetAfterHandOff aborts the client once its direction has
// moved into the kernel: Relay ends with ErrReset, not as a finished stream.
func TestRelayTCPResetAfterHandOff(t *testing.T) {
	const buf = 4096
	r := startRelay(t, &Pump{Buf: make([]byte, buf)})
	r.send(t, make([]byte, 2<<20))
	if !eventually(func() bool { return r.maxFwd.Load() > buf }) {
		t.Fatalf("bulk did not hand off: Fwd told of at most %d bytes at once", r.maxFwd.Load())
	}
	_ = Abort(r.env, r.client)
	if err := <-r.done; !errors.Is(err, ErrReset) {
		t.Fatalf("Relay after the client aborted = %v, want ErrReset", err)
	}
}
