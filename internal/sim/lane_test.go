package sim

import (
	"slices"
	"testing"
	"time"
)

// firing is one observation of a lane-mix run: the instant something fired
// and the number of the scheduling call that armed it (calls are numbered in
// issue order, as sequence numbers are). A Timer.Stop is recorded too, with
// at = -1 and id = 1 when it prevented its callback, 0 when it did not.
type firing struct {
	at time.Duration
	id int
}

// laneMix runs a seeded mix of After, AfterEvent, AfterTask, lane events,
// Timer.Stop, a sleeping process and processes running SleepEach series,
// with delays drawn so that zero delays and same-instant ties are common.
// Each firing arms one or two more calls until the call budget is spent.
// Lane calls use more distinct delays than the kernel has lanes, and a zero
// delay, so the heap fallback is in the mix. A series either repeats one
// delay, which may ride a lane, or draws a new one per slice. With lanes
// false every lane call is an AfterEvent with the same delay instead, and
// every series the Sleep loop SleepEach stands for: the reference, whose
// order is the heap's (at, seq) order by construction.
func laneMix(t testing.TB, seed uint64, lanes bool) []firing {
	k := New()
	k.Seed(seed)
	m := &mixer{k: k, lanes: lanes, budget: 1500}
	for i := 0; i < 24; i++ {
		m.arm()
	}
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(heapDelays[k.Rand()%uint64(len(heapDelays))])
			m.log = append(m.log, firing{p.Now(), -2})
		}
	})
	for i := 0; i < 3; i++ {
		id := -3 - i
		k.Spawn("slicer", func(p *Proc) {
			for round := 0; round < 8; round++ {
				d := sliceDelays[k.Rand()%uint64(len(sliceDelays))]
				oneOff := k.Rand()%3 == 0
				left := 1 + int(k.Rand()%20)
				step := func() time.Duration {
					m.log = append(m.log, firing{p.Now(), id})
					if left--; left == 0 {
						return 0
					}
					if oneOff {
						return sliceDelays[k.Rand()%uint64(len(sliceDelays))]
					}
					return d
				}
				if lanes {
					p.SleepEach(d, step)
				} else {
					sleepLoop(p, d, step)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lanes && len(k.lanes) != maxLanes {
		t.Fatalf("mix opened %d lanes, want the %d-lane cap reached", len(k.lanes), maxLanes)
	}
	return m.log
}

// heapDelays, laneDelays and sliceDelays share instants so ties across
// queues are common; laneDelays has a zero and more positive values than
// maxLanes, and sliceDelays some that no lane call uses.
var (
	heapDelays  = []time.Duration{0, 0, 1, 2, 3, 5, 8, 13}
	laneDelays  = []time.Duration{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	sliceDelays = []time.Duration{1, 2, 3, 5, 7, 11, 12, 20}
)

type mixer struct {
	k      *Kernel
	lanes  bool
	budget int
	next   int
	timers []*Timer
	log    []firing
}

// mixEvent is one armed AfterEvent, AfterTask or lane call.
type mixEvent struct {
	m  *mixer
	id int
}

func (e *mixEvent) OnEvent(*Kernel) { e.m.fired(e.id) }
func (e *mixEvent) RunTask(*Kernel) { e.m.fired(e.id) }

func (m *mixer) fired(id int) {
	m.log = append(m.log, firing{m.k.Now(), id})
	for n := 1 + m.k.Rand()%2; n > 0; n-- {
		m.arm()
	}
}

// arm issues one scheduling call, or stops a pending timer.
func (m *mixer) arm() {
	if m.budget == 0 {
		return
	}
	m.budget--
	k := m.k
	id := m.next
	m.next++
	d := heapDelays[k.Rand()%uint64(len(heapDelays))]
	switch k.Rand() % 6 {
	case 0:
		m.timers = append(m.timers, k.After(d, func() { m.fired(id) }))
	case 1:
		k.AfterEvent(d, &mixEvent{m, id})
	case 2:
		k.AfterTask(d, &mixEvent{m, id})
	case 3:
		if len(m.timers) > 0 {
			i := k.Rand() % uint64(len(m.timers))
			stopped := 0
			if m.timers[i].Stop() {
				stopped = 1
			}
			m.log = append(m.log, firing{-1, stopped})
			return
		}
		fallthrough
	default:
		d = laneDelays[k.Rand()%uint64(len(laneDelays))]
		if l := k.Lane(d); m.lanes && l != nil {
			l.AfterEvent(&mixEvent{m, id})
		} else {
			k.AfterEvent(d, &mixEvent{m, id})
		}
	}
}

func checkLaneOrder(t testing.TB, seed uint64) {
	got, want := laneMix(t, seed, true), laneMix(t, seed, false)
	if !slices.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("seed %d: lanes diverge from the heap order at firing %d of %d/%d", seed, n, len(got), len(want))
	}
}

// TestLanesKeepHeapOrder: merging lane heads with the heap top fires every
// event in exactly the order the heap alone would.
func TestLanesKeepHeapOrder(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		checkLaneOrder(t, seed)
	}
}

// FuzzLaneOrder is TestLanesKeepHeapOrder over arbitrary seeds.
func FuzzLaneOrder(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, seed uint64) { checkLaneOrder(t, seed) })
}

// laneFunc adapts a func to EventHandler for the edge rows below.
type laneFunc func()

func (f laneFunc) OnEvent(*Kernel) { f() }

// TestRunUntilCountsLanes: with only lane events pending, RunUntil(t) still
// leaves the clock at t, and a later RunUntil fires them.
func TestRunUntilCountsLanes(t *testing.T) {
	k := New()
	fired := false
	k.Lane(10 * time.Microsecond).AfterEvent(laneFunc(func() { fired = true }))
	k.RunUntil(5 * time.Microsecond)
	if fired || k.Now() != 5*time.Microsecond {
		t.Fatalf("RunUntil(5µs): fired=%v now=%v, want not fired at 5µs", fired, k.Now())
	}
	k.RunUntil(20 * time.Microsecond)
	if !fired || k.Now() != 10*time.Microsecond {
		t.Fatalf("RunUntil(20µs): fired=%v now=%v, want fired at 10µs", fired, k.Now())
	}
}

// TestLaneWakeupIsNotDeadlock: a process whose only wakeup is a lane event
// is waiting, not deadlocked.
func TestLaneWakeupIsNotDeadlock(t *testing.T) {
	k := New()
	ev := NewEvent(k)
	woke := time.Duration(-1)
	k.Spawn("waiter", func(p *Proc) {
		ev.Wait(p)
		woke = p.Now()
	})
	k.Lane(time.Millisecond).AfterEvent(laneFunc(ev.Set))
	if err := k.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != time.Millisecond {
		t.Fatalf("waiter woke at %v, want 1ms", woke)
	}
}

// TestLaneBounds: a non-positive delay has no lane, a delay past the cap
// falls back to the heap, and a repeated delay shares its lane.
func TestLaneBounds(t *testing.T) {
	k := New()
	if k.Lane(0) != nil || k.Lane(-time.Second) != nil {
		t.Fatal("Lane returned a lane for a non-positive delay")
	}
	for d := time.Duration(1); d <= maxLanes; d++ {
		if k.Lane(d) == nil {
			t.Fatalf("Lane(%d) = nil below the cap", d)
		}
	}
	if k.Lane(maxLanes+1) != nil {
		t.Fatal("Lane past the cap returned a lane")
	}
	if k.Lane(3) != k.Lane(3) {
		t.Fatal("the same delay got two lanes")
	}
}

// TestSliceSeriesRidesLane: a SleepEach series that repeats its slice keeps
// its wakeups off the timer heap, and a series of one-off slices before it
// takes no lane, so the kernel's lanes are left for the repeating one.
func TestSliceSeriesRidesLane(t *testing.T) {
	const oneOffs, n, d = 2 * maxLanes, 50, 100
	k := New()
	repeats := 0
	k.Spawn("series", func(p *Proc) {
		next := time.Duration(1)
		p.SleepEach(next, func() time.Duration {
			if next == oneOffs {
				return 0
			}
			next++
			return next
		})
		if len(k.lanes) != 0 {
			t.Errorf("one-off slices took %d lanes", len(k.lanes))
		}
		p.SleepEach(d, func() time.Duration {
			if repeats++; repeats == n {
				return 0
			}
			return d
		})
	})
	for k.Step() {
		if repeats > 0 && repeats < n && k.events.len() != 0 {
			t.Fatalf("after repeating slice %d the timer heap holds %d events, want the wakeup on the lane", repeats, k.events.len())
		}
	}
	if want := time.Duration(oneOffs*(oneOffs+1)/2 + n*d); k.Now() != want || repeats != n {
		t.Fatalf("%d repeating slices ended at %v, want %d at %v", repeats, k.Now(), n, want)
	}
}
