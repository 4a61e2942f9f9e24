package sim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	k := New()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := New()
	var at time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", at)
	}
}

func TestSleepZeroYields(t *testing.T) {
	k := New()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i, s := range want {
		if order[i] != s {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 0 {
		t.Fatalf("clock advanced to %v on zero sleep", k.Now())
	}
}

func TestMultipleSleepersOrdered(t *testing.T) {
	k := New()
	var wakes []time.Duration
	for _, d := range []time.Duration{5 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond} {
		d := d
		k.Spawn("s", func(p *Proc) {
			p.Sleep(d)
			wakes = append(wakes, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 3 {
		t.Fatalf("got %d wakes", len(wakes))
	}
	for i := 1; i < len(wakes); i++ {
		if wakes[i] < wakes[i-1] {
			t.Fatalf("wakeups out of order: %v", wakes)
		}
	}
	if wakes[2] != 5*time.Millisecond {
		t.Fatalf("last wake at %v, want 5ms", wakes[2])
	}
}

func TestSleepUntil(t *testing.T) {
	k := New()
	k.Spawn("p", func(p *Proc) {
		p.SleepUntil(10 * time.Second)
		if p.Now() != 10*time.Second {
			t.Errorf("Now() = %v, want 10s", p.Now())
		}
		// SleepUntil in the past must not rewind the clock.
		p.SleepUntil(1 * time.Second)
		if p.Now() != 10*time.Second {
			t.Errorf("clock rewound to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAfterTimerFiresAndStops(t *testing.T) {
	k := New()
	fired := 0
	k.After(time.Second, func() { fired++ })
	stopped := k.After(2*time.Second, func() { fired += 100 })
	if !stopped.Stop() {
		t.Fatal("Stop returned false on pending timer")
	}
	if stopped.Stop() {
		t.Fatal("second Stop returned true")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != time.Second {
		t.Fatalf("clock at %v, want 1s", k.Now())
	}
}

// ErrDeadlock names who is stuck: live processes in PID order, daemons and
// the exited left out, eight at most and then a count.
func TestDeadlockNamesTheStuck(t *testing.T) {
	ten := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for _, c := range []struct {
		// "name" blocks forever, "name." exits and "name~" is a daemon.
		names []string
		want  string
	}{
		{[]string{"rx"}, "(1 live: rx#1)"},
		{[]string{"up~", "rx", "done.", "tx"}, "(2 live: rx#2 tx#4)"},
		{ten, "(10 live: a#1 b#2 c#3 d#4 e#5 f#6 g#7 h#8 +2 more)"},
	} {
		k := New()
		for _, name := range c.names {
			body := func(p *Proc) { NewEvent(k).Wait(p) }
			switch {
			case strings.HasSuffix(name, "."):
				k.Spawn(name, func(*Proc) {})
			case strings.HasSuffix(name, "~"):
				k.SpawnDaemon(name, body)
			default:
				k.Spawn(name, body)
			}
		}
		if err := k.Run(); !errors.Is(err, ErrDeadlock) || !strings.HasSuffix(err.Error(), "event queue "+c.want) {
			t.Errorf("%v: err = %v, want ErrDeadlock ending %q", c.names, err, c.want)
		}
		k.Shutdown()
	}
}

func TestShutdownUnwindsParkedProcs(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 0)
	p := k.Spawn("stuck", func(p *Proc) {
		_, _ = ch.Recv(p)
	})
	_ = k.Run()
	k.Shutdown()
	select {
	case <-p.Done():
	case <-time.After(time.Second):
		t.Fatal("process goroutine did not unwind after Shutdown")
	}
}

func TestRunUntilStopsClock(t *testing.T) {
	k := New()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	k.RunUntil(10*time.Second + 500*time.Millisecond)
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
	if k.Now() != 10*time.Second+500*time.Millisecond {
		t.Fatalf("clock at %v", k.Now())
	}
	k.Shutdown()
}

func TestDeterministicInterleaving(t *testing.T) {
	runOnce := func() []int {
		k := New()
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			k.Spawn("p", func(p *Proc) {
				p.Sleep(time.Duration(i%3) * time.Millisecond)
				order = append(order, i)
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := runOnce()
	for trial := 0; trial < 5; trial++ {
		got := runOnce()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("nondeterministic order: %v vs %v", first, got)
			}
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := New()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Second)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
			if c.Now() != 2*time.Second {
				t.Errorf("child woke at %v, want 2s", c.Now())
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestLiveCount(t *testing.T) {
	k := New()
	done := NewEvent(k)
	k.Spawn("waiter", func(p *Proc) { done.Wait(p) })
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(time.Second)
		if k.Live() != 2 {
			t.Errorf("Live() = %d mid-run, want 2", k.Live())
		}
		done.Set()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Live() != 0 {
		t.Fatalf("Live() = %d after Run, want 0", k.Live())
	}
}

func TestEventTieBreakBySequence(t *testing.T) {
	k := New()
	var order []string
	k.After(time.Second, func() { order = append(order, "first") })
	k.After(time.Second, func() { order = append(order, "second") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("same-time events fired out of scheduling order: %v", order)
	}
}
