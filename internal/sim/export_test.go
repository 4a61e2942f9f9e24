package sim

import "time"

// Cap reports the channel capacity.
func (c *Chan[T]) Cap() int { return c.capacity }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Available reports the current count.
func (s *Semaphore) Available() int { return s.count }

// Exited reports whether the process function has returned.
func (p *Proc) Exited() bool { return p.exited }

// WaitTimeout blocks until the event is set or d elapses; it reports whether
// the event was set.
func (e *Event) WaitTimeout(p *Proc, d time.Duration) bool {
	if e.set {
		return true
	}
	if d == 0 {
		return false
	}
	w := newWaiter(p)
	e.waiters = append(e.waiters, w)
	if d > 0 {
		w.setTimeout(d)
	}
	p.park("WaitTimeout")
	return !w.timedOut
}

// WaitTimeout parks until signaled or d elapses; reports whether a signal
// (not the timeout) woke the process.
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	if d == 0 {
		return false
	}
	w := newWaiter(p)
	c.waiters = append(c.waiters, w)
	if d > 0 {
		w.setTimeout(d)
	}
	p.park("WaitTimeout")
	// A fired-by-timeout waiter is dropped lazily; Broadcast skips it.
	return !w.timedOut
}
