package hbm

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nxcluster/internal/transport"
)

// serveMonitor starts m on a process of env at port and returns its
// address.
func serveMonitor(t *testing.T, env transport.Env, m *Monitor, port int) string {
	t.Helper()
	ready, failed := make(chan string, 1), make(chan error, 1)
	env.Spawn("monitor", func(e transport.Env) {
		if err := m.Serve(e, port, func(a string) { ready <- a }); err != nil {
			failed <- err
		}
	})
	select {
	case addr := <-ready:
		return addr
	case err := <-failed:
		t.Fatal(err)
		return ""
	}
}

// countedTCP returns a loopback env whose dials are counted.
func countedTCP() (*transport.TCPEnv, *atomic.Int64) {
	env, dials := transport.NewTCPEnv("localhost"), &atomic.Int64{}
	env.DialGuard = func(string) error { dials.Add(1); return nil }
	return env, dials
}

// TestSessionsSharedTCP: two goroutines sharing one env send 100 beats
// each; every beat takes an idle session and keeps it after the reply, so
// the monitor accepts at most two connections.
func TestSessionsSharedTCP(t *testing.T) {
	env, dials := countedTCP()
	m := NewMonitor(time.Second)
	addr := serveMonitor(t, env, m, 0)
	defer m.Close(env)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := Beat(env, addr, "p"); err != nil {
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
		t.Errorf("%d connections for 200 beats, want at most 2", n)
	}
	if got := m.Beats("p"); got != 200 {
		t.Errorf("monitor counted %d beats, want 200", got)
	}
}

// TestSessionRetryTCP: a monitor restarted on the same port has ended the
// client's idle session, so the next beat fails on it before any reply byte
// and succeeds on exactly one new connection.
func TestSessionRetryTCP(t *testing.T) {
	env, dials := countedTCP()
	m := NewMonitor(time.Second)
	addr := serveMonitor(t, env, m, 0)
	_, port, err := transport.SplitAddr(addr)
	if err != nil {
		t.Fatal(err)
	}
	beat := func() (int64, error) {
		before := dials.Load()
		err := Beat(env, addr, "p")
		return dials.Load() - before, err
	}
	if n, err := beat(); err != nil || n != 1 {
		t.Fatalf("first beat: %d dials, err = %v; want 1 dial", n, err)
	}
	if n, err := beat(); err != nil || n != 0 {
		t.Fatalf("second beat: %d dials, err = %v; want the kept session", n, err)
	}
	m.Close(env)
	m = NewMonitor(time.Second)
	serveMonitor(t, env, m, port)
	defer m.Close(env)
	if n, err := beat(); err != nil || n != 1 {
		t.Fatalf("beat after a restart: %d dials, err = %v; want 1 dial (the retry)", n, err)
	}
	if got := m.Beats("p"); got != 1 {
		t.Fatalf("restarted monitor counted %d beats, want 1", got)
	}
}

// TestDaemonCloseTCP: Close ends the monitor's idle sessions at once, so no
// session goroutine is left.
func TestDaemonCloseTCP(t *testing.T) {
	start := runtime.NumGoroutine()
	env, _ := countedTCP()
	m := NewMonitor(time.Second)
	addr := serveMonitor(t, env, m, 0)
	for _, name := range []string{"p", "q"} {
		if err := Beat(env, addr, name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := QueryAll(env, addr); err != nil {
		t.Fatal(err)
	}
	m.Close(env)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before the monitor started:\n%s",
				runtime.NumGoroutine(), start, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
