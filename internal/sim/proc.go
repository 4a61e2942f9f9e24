package sim

import (
	"fmt"
	"time"
)

// Proc is the handle a simulated process uses for every interaction with the
// kernel: reading the clock, sleeping, and blocking on synchronization
// primitives. A Proc must only be used from within its own process function.
//
// The process body is a runtime coroutine (iter.Pull): next switches the
// calling thread straight into it, yield switches back, and stop resumes it one
// last time with yield reporting false. None of the three goes through the Go
// scheduler, and they never overlap — exactly one holder of control at a time.
type Proc struct {
	k      *Kernel
	pid    int
	name   string
	next   func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	done   chan struct{} // made by Done, on demand
	exited bool
	killed bool
	daemon bool
}

// PID returns the kernel-unique process id.
func (p *Proc) PID() int { return p.pid }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// run is the coroutine body wrapping the user function; it starts at the
// process's first scheduling. Whatever it panics with, iter.Pull raises again
// in the caller of next: the goroutine driving Run, RunUntil or Step.
func (p *Proc) run(fn func(p *Proc)) {
	k := p.k
	defer func() {
		r := recover()
		if r == nil || r == errKilled { //nolint:errorlint // sentinel identity
			// Killed — or the body left through runtime.Goexit (t.Fatal in a
			// test), which iter.Pull passes on to the caller of next once
			// the process is retired.
			if !p.exited {
				p.leave()
			}
			return
		}
		p.exit()
		if kp, inKernel := r.(kernelPanic); inKernel {
			panic(string(kp))
		}
		// Name the process: the stack that reports this is the caller's.
		k.tracef("proc %s panicked: %v", p.name, r)
		panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
	}()
	k.tracef("proc %s start", p.name)
	fn(p)
	p.leave()
}

// leave retires the process and, on its way back to the caller, schedules
// onwards in place — unless it was killed: then control is its killer's.
func (p *Proc) leave() {
	p.exit()
	if !p.killed {
		p.k.dispatch(p)
	}
}

// exit retires the process, once: it leaves the process table and releases
// everything waiting on Done.
func (p *Proc) exit() {
	if p.exited {
		return
	}
	k := p.k
	p.exited = true
	delete(k.procs, p.pid)
	if !p.daemon {
		k.live--
	}
	k.tracef("proc %s exit", p.name)
	if p.done != nil {
		close(p.done)
	}
}

// kill resumes a parked process with the kill signal; stop returns when its
// stack has unwound. The caller's coroutine must not be p's own. A process
// that was never scheduled has no stack: stop only keeps its body from ever
// running, so it is retired here.
func (p *Proc) kill() {
	p.killed = true
	p.stop()
	p.exit()
}

// RunTask implements Task for Step: the process runs until it next parks or
// exits, and parks without scheduling onwards.
func (p *Proc) RunTask(k *Kernel) {
	if p.exited {
		return
	}
	k.stepping = true
	k.resume(p)
	k.stepping = false
}

// park gives up control until the process is resumed: under Run the process
// schedules onwards itself first, under Step it returns to the caller at
// once. A killed process cannot block again (its killer is waiting for it to
// unwind): deferred cleanup that tries to keeps unwinding, as does a process
// resumed by stop.
func (p *Proc) park() {
	if p.killed {
		panic(errKilled)
	}
	if p.k.dispatch(p) {
		return
	}
	if !p.yield(struct{}{}) {
		panic(errKilled)
	}
}

// yieldNow reschedules the process at the current instant, letting other
// ready processes run first. Useful to model round-robin CPU sharing.
func (p *Proc) Yield() {
	p.k.ready.push(p)
	p.park()
}

// wake makes a parked process runnable at the current instant.
func (p *Proc) wake() {
	if p.exited {
		return
	}
	p.k.ready.push(p)
}

// Sleep blocks the process for d of virtual time. Negative or zero durations
// yield the processor but do not advance the clock.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.k.scheduleTask(p.k.now+d, p)
	p.park()
}

// SleepUntil blocks until the virtual clock reaches t.
func (p *Proc) SleepUntil(t time.Duration) {
	if t <= p.k.now {
		p.Yield()
		return
	}
	p.k.scheduleTask(t, p)
	p.park()
}

// Done returns a channel closed when the process exits. Call it while
// holding control (from simulated code, or between runs); the channel may then
// be read from anywhere.
func (p *Proc) Done() <-chan struct{} {
	if p.done == nil {
		p.done = make(chan struct{})
		if p.exited {
			close(p.done)
		}
	}
	return p.done
}

// Exited reports whether the process function has returned.
func (p *Proc) Exited() bool { return p.exited }

// waiter represents one parked process waiting on a primitive, with
// cancelable timeout support. A waiter fires at most once; timedOut records
// whether the firing was a timeout, for the parked side to inspect on wake.
type waiter struct {
	p        *Proc
	fired    bool
	timedOut bool
	timer    Timer
}

func newWaiter(p *Proc) *waiter { return &waiter{p: p} }

// fire wakes the waiting process if it has not been woken yet, canceling any
// pending timeout. It reports whether this call performed the wakeup.
func (w *waiter) fire() bool {
	if w.fired {
		return false
	}
	w.fired = true
	w.timer.Stop()
	w.p.wake()
	return true
}

// setTimeout arms a timeout that fires the waiter after d. The timeout event
// references the waiter directly — no callback closure — and sets w.timedOut
// when it performs the wakeup.
func (w *waiter) setTimeout(d time.Duration) {
	k := w.p.k
	ev := k.newEvent(k.now + d)
	ev.w = w
	k.place(ev)
	w.timer = Timer{k: k, ev: ev, gen: ev.gen}
}
