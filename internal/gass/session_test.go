package gass

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nxcluster/internal/transport"
)

// serveStore serves store on port (0 for any) of env and returns the server
// and its address.
func serveStore(t *testing.T, env transport.Env, store *Store, port int) (*Server, string) {
	t.Helper()
	srv := NewServer(store)
	ready, failed := make(chan string, 1), make(chan error, 1)
	env.Spawn("gass", func(e transport.Env) {
		if err := srv.Serve(e, port, func(addr string) { ready <- addr }); err != nil {
			failed <- err
		}
	})
	select {
	case addr := <-ready:
		return srv, addr
	case err := <-failed:
		t.Fatal(err)
		return nil, ""
	}
}

// countDials makes env count its dials.
func countDials(env *transport.TCPEnv) *atomic.Int32 {
	var n atomic.Int32
	env.DialGuard = func(string) error { n.Add(1); return nil }
	return &n
}

// TestSessionsSharedTCP: two goroutines share one TCPEnv and each publish
// and fetch 100 files. Calls take an idle session and keep it after the
// reply, a refusal for a missing file included, so the two callers dial at
// most one session each.
func TestSessionsSharedTCP(t *testing.T) {
	env, _, addr := startServer(t)
	dials := countDials(env)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				url := URL(addr, fmt.Sprintf("/c%d/%d", c, i))
				want := bytes.Repeat([]byte{byte(i)}, i)
				if err := Publish(env, url, want); err != nil {
					errs <- err
					return
				}
				if got, err := Fetch(env, url); err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("Fetch %s = %d bytes, %v; want %d bytes", url, len(got), err, len(want))
					return
				}
				if _, err := Fetch(env, url+"/missing"); !errors.Is(err, ErrNotFound) {
					errs <- fmt.Errorf("Fetch of a missing file = %v, want ErrNotFound", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := dials.Load(); n < 1 || n > 2 {
		t.Fatalf("two callers dialed %d sessions, want 1 or 2", n)
	}
}

// TestSessionRetryTCP: a server restarted on the same port has ended the
// client's idle session, so the next Fetch fails on it before any reply byte
// and succeeds on exactly one new session.
func TestSessionRetryTCP(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	dials := countDials(env)
	store := NewStore()
	if err := store.Put("/f", []byte("contents")); err != nil {
		t.Fatal(err)
	}
	srv, addr := serveStore(t, env, store, 0)
	t.Cleanup(func() { srv.Close(env) })
	_, port, err := transport.SplitAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(env, URL(addr, "/f")); err != nil || dials.Load() != 1 {
		t.Fatalf("first Fetch: %d dials, err = %v; want 1 dial", dials.Load(), err)
	}
	srv.Close(env)
	srv, _ = serveStore(t, env, store, port)
	got, err := Fetch(env, URL(addr, "/f"))
	if err != nil || string(got) != "contents" || dials.Load() != 2 {
		t.Fatalf("Fetch after a restart = %q, %v, %d dials in all; want the file on 1 new dial", got, err, dials.Load())
	}
}

// TestServerCloseEndsSessionsTCP: Close ends the sessions that wait idle
// for a next request, so no session goroutine is left.
func TestServerCloseEndsSessionsTCP(t *testing.T) {
	start := runtime.NumGoroutine()
	env := transport.NewTCPEnv("localhost")
	srv, addr := serveStore(t, env, NewStore(), 0)
	for i := 0; i < 3; i++ {
		if err := Publish(env, URL(addr, "/f"), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close(env)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the server started:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSizeHeadersAllocateLittle: a size header alone cannot make the client
// allocate the file it announces: a 4-byte reply header of 64 MiB followed
// by the end of the stream costs readData under 1 MiB. (The server's half, a
// 9-byte put of 64 MiB, is a seed of FuzzGASSSession in internal/wirefuzz.)
func TestSizeHeadersAllocateLittle(t *testing.T) {
	env := transport.NewTCPEnv("localhost")
	l, err := env.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(env)
	go func() {
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		_, _ = c.Write(env, binary.BigEndian.AppendUint32(nil, MaxFileSize))
		_ = c.Close(env)
	}()
	c, err := env.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(env)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = readData(transport.Stream{Env: env, Conn: c})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a reply cut short after its size header was read whole")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("the client allocated %d bytes for a 4-byte size header", got)
	}
}
