package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// SleepEach must be its Sleep loop, for d > 0 { p.Sleep(d); d = step() },
// with the process left out of the wakeups: these tests run the two side by
// side and pin what the loop would have done, slice by slice.

// Besides sleeps, the test programs block on a Cond or a Semaphore between
// two steps. A step asks for that with these markers; blockingLoop waits
// itself, while eachStep enlists the process and returns Parked.
const (
	onCond = -1 - iota
	onSem
)

// blockingLoop is the specification SleepEach replaces: the Sleep loop, with
// a step's Cond and Semaphore waits done by the process.
func blockingLoop(p *Proc, d time.Duration, step func() time.Duration, cond *Cond, sem *Semaphore) {
	for {
		switch {
		case d == onCond:
			cond.Wait(p)
		case d == onSem:
			sem.Acquire(p)
		case d > 0:
			p.Sleep(d)
		default:
			return
		}
		d = step()
	}
}

// eachStep carries a step's markers out in place: a Cond wait enlists the
// process, and so does a Semaphore with no unit free; a free unit is taken
// and, as after an Acquire that does not block, the next step runs at once.
// It is the form of step SleepEach takes in place of blockingLoop's.
func eachStep(p *Proc, d time.Duration, step func() time.Duration, cond *Cond, sem *Semaphore) time.Duration {
	for {
		switch {
		case d == onCond:
			cond.Enlist(p)
			return Parked
		case d == onSem && !sem.TryAcquire():
			sem.Enlist(p)
			return Parked
		case d == onSem:
			d = step()
		default:
			return d
		}
	}
}

// sleepLoop is blockingLoop for steps that only sleep.
func sleepLoop(p *Proc, d time.Duration, step func() time.Duration) {
	blockingLoop(p, d, step, nil, nil)
}

// postFunc runs fn as an inline Task.
type postFunc func()

func (f postFunc) RunTask(*Kernel) { f() }

// tiedDelays makes same-instant wakeups common; its zero ends a series, and
// its markers block the series on the program's Cond or Semaphore.
var tiedDelays = []time.Duration{0, time.Microsecond, time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond, onCond, onSem}

// seriesProgram spawns seeded processes that each run a few series of
// slices, every slice drawing its next delay from the kernel's stream and
// sometimes waking a peer or posting inline work, so that a slice changes
// the ready queue exactly where the process's own step would have. A slice
// may also block its series on a Cond (a ticker broadcasts it until every
// worker is done) or take the one unit of a Semaphore (held until the
// process's next slice). each picks SleepEach or the blocking loop; nothing
// else differs.
func seriesProgram(k *Kernel, seed uint64, each bool, log *[]rec) {
	k.Seed(seed)
	cond := NewCond(k)
	sem := NewSemaphore(k, 1)
	delay := func() time.Duration { return tiedDelays[k.Rand()%uint64(len(tiedDelays))] }
	n := 2 + int(k.Rand()%4)
	done := 0
	k.Spawn("ticker", func(p *Proc) {
		for done < n {
			p.Sleep(2 * time.Microsecond)
			cond.Broadcast()
		}
	})
	for i := 0; i < n; i++ {
		k.Spawn(fmt.Sprint("p", i), func(p *Proc) {
			defer func() { done++ }()
			note := func(op string) { *log = append(*log, rec{p.Now(), p.PID(), op}) }
			for round := 0; round < 3; round++ {
				left := 1 + int(k.Rand()%12)
				held := false
				release := func() {
					if held {
						sem.Release()
						held = false
					}
				}
				plan := func() time.Duration {
					release()
					d := delay()
					held = d == onSem
					return d
				}
				step := func() time.Duration {
					note("slice")
					switch k.Rand() % 4 {
					case 0:
						cond.Broadcast()
					case 1:
						k.Post(postFunc(func() { note("posted") }))
					}
					if left--; left == 0 {
						release()
						return 0
					}
					return plan()
				}
				if each {
					p.SleepEach(eachStep(p, plan(), step, cond, sem), func() time.Duration {
						return eachStep(p, step(), step, cond, sem)
					})
				} else {
					blockingLoop(p, plan(), step, cond, sem)
				}
				note("resumed")
				if k.Rand()%2 == 0 {
					note(fmt.Sprint("waited ", cond.WaitTimeout(p, 3*time.Microsecond)))
				} else {
					p.Yield()
				}
			}
		})
	}
}

type seriesRun struct {
	log    []rec
	events uint64
	now    time.Duration
}

func runSeries(t testing.TB, seed uint64, each bool, drive func(k *Kernel)) seriesRun {
	var r seriesRun
	k := New()
	seriesProgram(k, seed, each, &r.log)
	drive(k)
	if k.Live() != 0 {
		t.Fatalf("seed %d: %d processes still live", seed, k.Live())
	}
	r.events, r.now = k.Events(), k.Now()
	k.Shutdown()
	return r
}

func checkSleepEachOrder(t testing.TB, seed uint64) {
	run := func(k *Kernel) {
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	step := func(k *Kernel) {
		for k.Step() {
		}
	}
	want := runSeries(t, seed, false, run)
	for name, drive := range map[string]func(*Kernel){"Run": run, "Step": step} {
		got := runSeries(t, seed, true, drive)
		if !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("seed %d under %s: SleepEach diverges from the Sleep loop: %s", seed, name, firstDiff(want.log, got.log))
		}
		if got.events != want.events || got.now != want.now {
			t.Fatalf("seed %d under %s: %d events, clock %v; the Sleep loop: %d, %v",
				seed, name, got.events, got.now, want.events, want.now)
		}
	}
}

// TestSleepEachMatchesSleepLoop: same firing log, event count and final
// clock as the Sleep loop, under Run and under Step.
func TestSleepEachMatchesSleepLoop(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		checkSleepEachOrder(t, seed)
	}
}

// FuzzSleepEachOrder is TestSleepEachMatchesSleepLoop over arbitrary seeds.
func FuzzSleepEachOrder(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed uint64) { checkSleepEachOrder(t, seed) })
}

// countdown returns a step that hands back after n slices of d.
func countdown(n int, d time.Duration, calls *int) func() time.Duration {
	return func() time.Duration {
		if *calls++; *calls == n {
			return 0
		}
		return d
	}
}

// TestSleepEachSwitches: two processes whose wakeups alternate cost two
// switches a wakeup with Sleep loops, but with SleepEach the slices run on
// whichever stack is scheduling, so N slices cost what one sleep does.
func TestSleepEachSwitches(t *testing.T) {
	switches := func(n int, each bool) uint64 {
		k := New()
		for i, offset := range []time.Duration{2 * time.Microsecond, 3 * time.Microsecond} {
			calls := 0
			k.Spawn(fmt.Sprint("p", i), func(p *Proc) {
				p.Sleep(offset) // p1's wakeups fall between p0's
				if each {
					p.SleepEach(2*time.Microsecond, countdown(n, 2*time.Microsecond, &calls))
				} else {
					sleepLoop(p, 2*time.Microsecond, countdown(n, 2*time.Microsecond, &calls))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.switches
	}
	// Each process: started, resumed after its offset sleep (the other one
	// holds the stack), resumed when its series hands back: 3 resumes, 6
	// switches.
	for _, n := range []int{1, 10, 1000} {
		if got := switches(n, true); got != 12 {
			t.Errorf("SleepEach, %d slices each: %d switches, want 12", n, got)
		}
	}
	if got := switches(1000, false); got < 2*2*1000 {
		t.Errorf("Sleep loops, 1000 slices each: %d switches, want at least 2 per wakeup", got)
	}
}

// TestSleepEachKilledMidSeries: a kill between two slices ends the series;
// the step is never called again and the process unwinds at once.
func TestSleepEachKilledMidSeries(t *testing.T) {
	k := New()
	calls, cleaned := 0, false
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.SleepEach(time.Millisecond, countdown(100, time.Millisecond, &calls))
		t.Error("the series returned to a killed process")
	})
	k.After(5500*time.Microsecond, func() { k.Kill(victim) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 5 || !cleaned || !victim.Exited() {
		t.Fatalf("step called %d times, cleaned=%v exited=%v; want 5 calls, then the kill", calls, cleaned, victim.Exited())
	}
	if k.Now() != 6*time.Millisecond {
		t.Fatalf("clock %v: the pending wakeup should still fire, as a no-op, at 6ms", k.Now())
	}
}

// TestSleepEachStep: under Step a slice is one unit of work; the Step that
// runs the slice which hands back also resumes the process.
func TestSleepEachStep(t *testing.T) {
	k := New()
	calls, after := 0, -1
	k.Spawn("p", func(p *Proc) {
		p.SleepEach(time.Millisecond, countdown(3, time.Millisecond, &calls))
		after = calls
	})
	var trail []int // calls after each Step
	for k.Step() {
		trail = append(trail, calls)
	}
	// start; then per slice: the wakeup event, the slice.
	want := []int{0, 0, 1, 1, 2, 2, 3}
	if !reflect.DeepEqual(trail, want) {
		t.Fatalf("calls after each Step %v, want %v", trail, want)
	}
	if after != 3 || k.Live() != 0 || k.Now() != 3*time.Millisecond {
		t.Fatalf("resumed after %d calls, %d live, clock %v", after, k.Live(), k.Now())
	}
}

// TestSleepEachRunUntilMidSeries: a horizon between two slices stops the
// clock there; the series carries on where it stopped.
func TestSleepEachRunUntilMidSeries(t *testing.T) {
	k := New()
	var at []time.Duration
	done := time.Duration(-1)
	k.Spawn("p", func(p *Proc) {
		n := 0
		p.SleepEach(time.Millisecond, func() time.Duration {
			at = append(at, p.Now())
			if n++; n == 10 {
				return 0
			}
			return time.Millisecond
		})
		done = p.Now()
	})
	k.RunUntil(3500 * time.Microsecond)
	if len(at) != 3 || k.Now() != 3500*time.Microsecond || done >= 0 {
		t.Fatalf("at the horizon: %d slices, clock %v, done %v; want 3, 3.5ms, not done", len(at), k.Now(), done)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, a := range at {
		if a != time.Duration(i+1)*time.Millisecond {
			t.Fatalf("slice %d at %v, want %v", i, a, time.Duration(i+1)*time.Millisecond)
		}
	}
	if len(at) != 10 || done != 10*time.Millisecond {
		t.Fatalf("%d slices, done at %v; want 10, 10ms", len(at), done)
	}
}

// TestSleepEachStepPanicOnCallerStack: a slice that panics under Step runs
// on the caller's stack; the panic names the process and leaves the kernel
// able to shut down. (panicCases covers the same panic on a process stack.)
func TestSleepEachStepPanicOnCallerStack(t *testing.T) {
	k := New()
	k.Spawn("x", func(p *Proc) {
		p.SleepEach(time.Millisecond, func() time.Duration { panic("step boom") })
	})
	var got any
	func() {
		defer func() { got = recover() }()
		for k.Step() {
		}
	}()
	if want := `sim: kernel-context panic in slice of process "x": step boom`; got != want {
		t.Fatalf("recovered %v, want %q", got, want)
	}
	k.Shutdown()
	if k.Live() != 0 {
		t.Fatalf("%d live after Shutdown", k.Live())
	}
}

// TestSleepEachRefusesKill: a slice is inline work, so Kill refuses it like
// any inline Task.
func TestSleepEachRefusesKill(t *testing.T) {
	k := New()
	bystander := k.Spawn("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	var got any
	k.Spawn("x", func(p *Proc) {
		p.SleepEach(time.Millisecond, func() time.Duration {
			defer func() { got = recover() }()
			k.Kill(bystander)
			return 0
		})
	})
	k.RunUntil(time.Second)
	if s, _ := got.(string); !strings.Contains(s, "sim: Kill called from inline *sim.Proc") {
		t.Fatalf("recovered %v", got)
	}
	if bystander.Exited() {
		t.Fatal("the bystander was killed")
	}
	k.Shutdown()
}

// TestSleepEachRefusesBlocking: a step that blocks — sleeps, waits on a Cond,
// takes a Semaphore with no unit free — would yield whichever coroutine is
// scheduling, so park refuses it by name.
func TestSleepEachRefusesBlocking(t *testing.T) {
	for op, block := range map[string]func(p *Proc, c *Cond, s *Semaphore){
		"Sleep":             func(p *Proc, _ *Cond, _ *Semaphore) { p.Sleep(time.Millisecond) },
		"Cond.Wait":         func(p *Proc, c *Cond, _ *Semaphore) { c.Wait(p) },
		"Semaphore.Acquire": func(p *Proc, _ *Cond, s *Semaphore) { s.Acquire(p) },
	} {
		k := New()
		c, s := NewCond(k), NewSemaphore(k, 0)
		k.Spawn("x", func(p *Proc) {
			p.SleepEach(time.Millisecond, func() time.Duration {
				block(p, c, s)
				return 0
			})
		})
		var got any
		func() {
			defer func() { got = recover() }()
			_ = k.Run()
		}()
		want := fmt.Sprintf("sim: %s blocks inside in-place work of process %q", op, "x")
		if s, _ := got.(string); !strings.Contains(s, want) {
			t.Errorf("%s in a step: recovered %v, want it to contain %q", op, got, want)
		}
		k.Shutdown()
	}
}

// TestSleepEachParkedSwitches: a series that parks on a Cond between steps is
// resumed only when it hands back, however many Broadcasts wake it in
// between; with a Wait loop each wakeup costs two switches.
func TestSleepEachParkedSwitches(t *testing.T) {
	switches := func(n int, each bool) uint64 {
		k := New()
		c := NewCond(k)
		calls := 0
		k.Spawn("waiter", func(p *Proc) {
			if !each {
				for i := 0; i < n; i++ {
					c.Wait(p)
				}
				return
			}
			c.Enlist(p)
			p.SleepEach(Parked, func() time.Duration {
				if calls++; calls == n {
					return 0
				}
				c.Enlist(p)
				return Parked
			})
		})
		k.Spawn("waker", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
				c.Broadcast()
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.switches
	}
	base := switches(1, true)
	for _, n := range []int{10, 1000} {
		if got := switches(n, true); got != base {
			t.Errorf("parked series, %d wakeups: %d switches, want %d as for one", n, got, base)
		}
	}
	if got := switches(1000, false); got < 2*1000 {
		t.Errorf("Wait loop, 1000 wakeups: %d switches, want at least 2 per wakeup", got)
	}
}
