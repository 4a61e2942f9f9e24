package sim

import (
	"fmt"
	"time"
)

// Proc is the handle a simulated process uses for every interaction with the
// kernel: reading the clock, sleeping, and blocking on synchronization
// primitives. A Proc must only be used from within its own process function.
type Proc struct {
	k      *Kernel
	pid    int
	name   string
	resume chan struct{}
	done   chan struct{}
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

// run is the goroutine body wrapping the user function.
func (p *Proc) run(fn func(p *Proc)) {
	k := p.k
	defer func() {
		r := recover()
		if kp, inKernel := r.(kernelPanic); inKernel {
			panic(string(kp))
		}
		if r != nil && r != errKilled { //nolint:errorlint // sentinel identity
			// Re-panicking here would crash the whole test binary from a
			// foreign goroutine with a stack that is hard to attribute; wrap
			// with the process name instead so failures are diagnosable.
			k.tracef("proc %s panicked: %v", p.name, r)
			p.exit()
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
		// Killed — or the body left through runtime.Goexit (t.Fatal in a
		// test), which must not take control of the simulation with it.
		if !p.exited {
			p.leave()
		}
	}()
	// Wait for the first scheduling. A process killed before it (host crashed
	// between Spawn and then) unwinds from here without running fn.
	p.await()
	k.tracef("proc %s start", p.name)
	fn(p)
	p.leave()
}

// leave retires the process and passes control on — unless it was killed:
// then its Kill is waiting on done, and control was never this goroutine's.
func (p *Proc) leave() {
	k := p.k
	p.exit()
	switch {
	case p.killed:
	case k.stepping:
		k.yield <- struct{}{}
	default:
		k.dispatch(p)
	}
}

// exit retires the process: it leaves the process table and releases
// everything waiting on Done, including a Kill in progress.
func (p *Proc) exit() {
	k := p.k
	p.exited = true
	delete(k.procs, p.pid)
	if !p.daemon {
		k.live--
	}
	k.tracef("proc %s exit", p.name)
	close(p.done)
}

// kill resumes a parked process with the kill signal and waits until its
// stack has unwound. The caller's goroutine must not be p's own.
func (p *Proc) kill() {
	p.killed = true
	p.resume <- struct{}{}
	<-p.done
}

// RunTask implements Task for Step, the one place the two-handoff rendezvous
// survives: the caller hands control to the process goroutine and blocks
// until it parks or exits. (Under Run, Kernel.resume does it in one.)
func (p *Proc) RunTask(k *Kernel) {
	if p.exited {
		return
	}
	if k.yield == nil {
		k.yield = make(chan struct{}) // Run never needs it
	}
	k.current = p
	k.stepping = true
	p.resume <- struct{}{}
	<-k.yield
	k.stepping = false
	k.current = nil
}

// await blocks until the process is resumed. If it was killed meanwhile, it
// unwinds.
func (p *Proc) await() {
	<-p.resume
	if p.killed {
		panic(errKilled)
	}
}

// park gives up control until the process is resumed: under Run the process
// schedules onwards itself, under Step it returns to the caller. A killed
// process cannot block again (its Kill is waiting for it): deferred cleanup
// that tries to keeps unwinding.
func (p *Proc) park() {
	k := p.k
	if p.killed {
		panic(errKilled)
	}
	if k.stepping {
		k.yield <- struct{}{}
	} else if k.dispatch(p) {
		return
	}
	p.await()
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

// Done returns a channel closed when the process exits. It may be read from
// outside the simulation (e.g. by tests after Run returns).
func (p *Proc) Done() <-chan struct{} { return p.done }

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
