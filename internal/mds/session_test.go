package mds

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nxcluster/internal/transport"
)

// serveDirectory starts a server over a two-host directory on a process of
// a loopback env whose dials are counted, and returns the server and its
// address.
func serveDirectory(t *testing.T) (*transport.TCPEnv, *atomic.Int64, *Server, string) {
	t.Helper()
	env, dials := transport.NewTCPEnv("localhost"), &atomic.Int64{}
	env.DialGuard = func(string) error { dials.Add(1); return nil }
	dir := NewDirectory()
	for _, c := range []struct {
		dn, cluster string
		cpus        int
	}{{"hn=rwcp-sun, ou=rwcp, o=grid", "rwcp", 4}, {"hn=etl-o2k, ou=etl, o=grid", "etl", 16}} {
		if err := dir.Add(c.dn, hostEntry(c.cluster, c.cpus)); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(dir)
	ready := make(chan string, 1)
	env.Spawn("mds", func(e transport.Env) {
		if err := srv.Serve(e, 0, func(addr string) { ready <- addr }); err != nil {
			t.Error(err)
			close(ready)
		}
	})
	addr, ok := <-ready
	if !ok {
		t.FailNow()
	}
	return env, dials, srv, addr
}

// TestSessionsSharedTCP: two goroutines sharing one env run 100 searches
// each; every search takes an idle session and keeps it after the reply,
// so the server accepts at most two connections.
func TestSessionsSharedTCP(t *testing.T) {
	env, dials, srv, addr := serveDirectory(t)
	defer srv.Close(env)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				res, err := (Client{Addr: addr}).Search(env, "o=grid", "(freecpus>=8)")
				if err == nil && len(res) != 1 {
					err = fmt.Errorf("search found %d entries, want 1", len(res))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := dials.Load(); n > 2 {
		t.Errorf("%d connections for 200 searches, want at most 2", n)
	}
}

// TestDaemonCloseTCP: Close ends the server's idle sessions at once, so no
// session goroutine is left.
func TestDaemonCloseTCP(t *testing.T) {
	start := runtime.NumGoroutine()
	env, _, srv, addr := serveDirectory(t)
	for _, filter := range []string{"", "(cluster=etl)"} {
		if _, err := (Client{Addr: addr}).Search(env, "o=grid", filter); err != nil {
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
