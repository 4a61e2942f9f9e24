package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestYieldRoundRobins(t *testing.T) {
	k := New()
	var order []string
	for _, name := range []string{"a", "b"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				order = append(order, fmt.Sprintf("%s%d", name, i))
				p.Yield()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(order, " ")
	want := "a0 b0 a1 b1 a2 b2"
	if got != want {
		t.Fatalf("interleaving = %q, want %q", got, want)
	}
}

func TestDaemonsDoNotBlockRun(t *testing.T) {
	k := New()
	served := 0
	ch := NewChan[int](k, 0)
	k.SpawnDaemon("server", func(p *Proc) {
		for {
			if _, err := ch.Recv(p); err != nil {
				return
			}
			served++
		}
	})
	k.Spawn("client", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			_ = ch.Send(p, i)
		}
	})
	// Run must return nil even though the daemon is parked forever.
	if err := k.Run(); err != nil {
		t.Fatalf("Run with parked daemon = %v", err)
	}
	if served != 3 {
		t.Fatalf("served = %d", served)
	}
	if k.Live() != 0 {
		t.Fatalf("Live = %d (daemons must not count)", k.Live())
	}
	k.Shutdown()
}

func TestTraceCallback(t *testing.T) {
	k := New()
	var lines []string
	k.Trace = func(at time.Duration, format string, args ...interface{}) {
		lines = append(lines, fmt.Sprintf("%v "+format, append([]interface{}{at}, args...)...))
	}
	k.Spawn("worker", func(p *Proc) { p.Sleep(time.Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "worker start") || !strings.Contains(joined, "worker exit") {
		t.Fatalf("trace missing lifecycle lines:\n%s", joined)
	}
}

func TestProcAccessors(t *testing.T) {
	k := New()
	p := k.Spawn("named", func(p *Proc) {
		if p.Name() != "named" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.PID() == 0 {
			t.Error("PID = 0")
		}
		if p.Kernel() != k {
			t.Error("Kernel mismatch")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Exited() {
		t.Fatal("Exited = false after Run")
	}
}

func TestStepGranularity(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) { p.Sleep(time.Second) })
	steps := 0
	for k.Step() {
		steps++
		if steps > 10 {
			t.Fatal("runaway stepping")
		}
	}
	// At least: initial resume + timer fire + final resume.
	if steps < 3 {
		t.Fatalf("steps = %d", steps)
	}
	if !k.Step() == false {
		t.Fatal("Step after drain should be false")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {})
	_ = k.Run()
	k.Shutdown()
	k.Shutdown() // second call must be a no-op
	if k.Step() {
		t.Fatal("Step after Shutdown did work")
	}
}

func TestChanLenCapClosed(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 3)
	if ch.Cap() != 3 || ch.Len() != 0 || ch.Closed() {
		t.Fatal("fresh channel state wrong")
	}
	_ = ch.TrySend(1)
	if ch.Len() != 1 {
		t.Fatalf("Len = %d", ch.Len())
	}
	ch.Close()
	if !ch.Closed() {
		t.Fatal("Closed = false")
	}
	ch.Close() // idempotent
	// Negative capacity clamps to zero (rendezvous).
	ch2 := NewChan[int](k, -5)
	if ch2.Cap() != 0 {
		t.Fatalf("Cap = %d", ch2.Cap())
	}
}

func TestRunUntilWithNoWorkReturns(t *testing.T) {
	k := New()
	k.RunUntil(time.Hour)
	if k.Now() != 0 {
		t.Fatalf("clock moved to %v with no work", k.Now())
	}
}
