package sim

import (
	"testing"
	"time"
)

// TestStepZeroAlloc pins the kernel's hot-path contract: once pools are
// warm, a Step on the Sleep/wake path allocates nothing — events come from
// the free list, wakeups reference the process directly. The observability
// layer must keep it that way: with no observer attached there is nothing
// to pay.
func TestStepZeroAlloc(t *testing.T) {
	k := New()
	k.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	for i := 0; i < 100; i++ { // warm the event pool
		k.Step()
	}
	if avg := testing.AllocsPerRun(1000, func() { k.Step() }); avg != 0 {
		t.Errorf("kernel Step allocates %.2f objects/op in steady state, want 0", avg)
	}
	k.Shutdown()
}

// TestTimerStopZeroAlloc: the index-aware event heap removes a canceled event
// in O(log n) instead of leaking it until its deadline, and the event returns
// to the free list, so a churned timeout allocates nothing.
func TestTimerStopZeroAlloc(t *testing.T) {
	k := New()
	fn := func() {}
	if avg := testing.AllocsPerRun(1000, func() { k.After(time.Second, fn).Stop() }); avg != 0 {
		t.Errorf("After+Stop allocates %.2f objects/op, want 0", avg)
	}
}

// TestLaneZeroAlloc: an event scheduled on a lane takes its record from the
// free list and its slot from the lane's FIFO, so with a hundred in flight a
// schedule-and-fire allocates nothing.
func TestLaneZeroAlloc(t *testing.T) {
	k := New()
	l := k.Lane(time.Microsecond)
	h := EventHandler(laneFunc(func() {}))
	for i := 0; i < 100; i++ {
		l.AfterEvent(h)
		k.Step()
		l.AfterEvent(h)
	}
	if avg := testing.AllocsPerRun(1000, func() { l.AfterEvent(h); k.Step() }); avg != 0 {
		t.Errorf("lane AfterEvent+Step allocates %.2f objects/op, want 0", avg)
	}
}

// kernelLoad is a program set up for n operations, run through Run — where a
// parking process schedules onwards itself, the path workloads take — with
// the most it may allocate per operation.
type kernelLoad struct {
	name      string
	spawn     func(k *Kernel, n int)
	maxAllocs float64
}

func sleeper(offset time.Duration, n int) func(p *Proc) {
	return func(p *Proc) {
		p.Sleep(offset)
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	}
}

// switchLoads count one operation per resume: of a lone sleeper that is
// always its own successor (self: no switch), of two processes alternating
// over an unbuffered Chan (pair: two coroutine switches through the Run
// caller; every receive is delivered, and its waiter recycled), of twenty
// sleepers offset by 50 ns so their wakeups interleave (staggered20), of a
// process woken by a Broadcast each microsecond (cond), and of two processes
// taking turns at a one-unit Semaphore (semaphore). The waiters of Cond,
// Semaphore and Chan come from free lists, so none of them allocates.
var switchLoads = []kernelLoad{
	{"self", func(k *Kernel, n int) { k.Spawn("s", sleeper(0, n)) }, 0},
	{"pair", func(k *Kernel, n int) {
		c := NewChan[int](k, 0)
		k.Spawn("ping", func(p *Proc) {
			for i := 0; i < n; i++ {
				_ = c.Send(p, i)
			}
		})
		k.Spawn("pong", func(p *Proc) {
			for i := 0; i < n; i++ {
				_, _ = c.Recv(p)
			}
		})
	}, 0},
	{"staggered20", func(k *Kernel, n int) {
		for j := 0; j < 20; j++ {
			k.Spawn("s", sleeper(time.Duration(j)*50*time.Nanosecond, (n+19)/20))
		}
	}, 0},
	{"cond", func(k *Kernel, n int) {
		c := NewCond(k)
		k.SpawnDaemon("waiter", func(p *Proc) {
			for {
				c.Wait(p)
			}
		})
		k.Spawn("broadcaster", func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
				c.Broadcast()
			}
		})
	}, 0},
	{"semaphore", func(k *Kernel, n int) {
		s := NewSemaphore(k, 1)
		for j := 0; j < 2; j++ {
			k.Spawn("s", func(p *Proc) {
				for i := 0; i < (n+1)/2; i++ {
					s.Acquire(p)
					p.Sleep(time.Microsecond)
					s.Release()
				}
			})
		}
	}, 0},
}

// spawnLoad is a process's fixed cost: each operation spawns a process with
// an empty body from a parent that then yields, so the child is created,
// scheduled once, exits and leaves the table. The allocations are the Proc,
// the body closure and the state iter.Pull keeps per coroutine.
var spawnLoad = kernelLoad{"spawn", func(k *Kernel, n int) {
	k.Spawn("parent", func(p *Proc) {
		for i := 0; i < n; i++ {
			k.Spawn("child", func(*Proc) {})
			p.Yield()
		}
	})
}, 17}

// TestLoadAllocs pins each load's allocations per operation. Set-up is taken
// out by difference: a run of 2n operations against a run of n. The count is
// process-wide, so a few stray allocations of other goroutines (a hundredth
// of one per operation) pass; one more per operation does not.
func TestLoadAllocs(t *testing.T) {
	const n = 2000
	for _, l := range append(switchLoads, spawnLoad) {
		run := func(n int) float64 {
			return testing.AllocsPerRun(1, func() {
				k := New()
				l.spawn(k, n)
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			})
		}
		if per := (run(2*n) - run(n)) / n; per > l.maxAllocs+0.01 {
			t.Errorf("%s: %.2f allocations per operation, want <= %v", l.name, per, l.maxAllocs)
		}
	}
}

func benchLoad(b *testing.B, l kernelLoad) {
	b.ReportAllocs()
	k := New()
	l.spawn(k, b.N)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	k.Shutdown()
}

// BenchmarkKernelSwitch times a resume of each switchLoads shape (Step, which
// always returns to its caller, is not a path workloads take).
func BenchmarkKernelSwitch(b *testing.B) {
	for _, l := range switchLoads {
		b.Run(l.name, func(b *testing.B) { benchLoad(b, l) })
	}
}

// BenchmarkKernelSpawn times spawnLoad: a process's fixed cost.
func BenchmarkKernelSpawn(b *testing.B) { benchLoad(b, spawnLoad) }
