package sim

// Semaphore is a counting semaphore for simulated processes.
type Semaphore struct {
	k       *Kernel
	count   int
	waiters fifo[*waiter]
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(k *Kernel, count int) *Semaphore {
	return &Semaphore{k: k, count: count}
}

// Acquire blocks the process until a unit is available, then takes it.
func (s *Semaphore) Acquire(p *Proc) {
	if s.count > 0 {
		s.count--
		return
	}
	s.Enlist(p)
	p.park("Semaphore.Acquire")
}

// Enlist queues p as an acquirer without parking it, for an in-place step
// (Proc.SleepEach) that found no unit free and returns Parked: the Release
// that hands p a unit posts p to the ready queue owning it, where Acquire
// would have resumed it, and the series' step runs there.
func (s *Semaphore) Enlist(p *Proc) { s.waiters.push(newWaiter(p)) }

// TryAcquire takes a unit if one is immediately available.
func (s *Semaphore) TryAcquire() bool {
	if s.count > 0 {
		s.count--
		return true
	}
	return false
}

// Release returns one unit, waking the longest-blocked acquirer if any.
func (s *Semaphore) Release() {
	for s.waiters.len() > 0 {
		w := s.waiters.pop()
		fired := w.fire()
		w.recycle()
		if fired {
			return
		}
	}
	s.count++
}

// Mutex is a binary semaphore with lock semantics.
type Mutex struct{ s *Semaphore }

// NewMutex creates an unlocked mutex.
func NewMutex(k *Kernel) *Mutex { return &Mutex{s: NewSemaphore(k, 1)} }

// Lock blocks until the mutex is acquired.
func (m *Mutex) Lock(p *Proc) { m.s.Acquire(p) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.Release() }

// Event is a one-shot broadcast: processes wait until it is set; once set,
// waits return immediately.
type Event struct {
	k       *Kernel
	set     bool
	waiters []*waiter
}

// NewEvent creates an unset event.
func NewEvent(k *Kernel) *Event { return &Event{k: k} }

// IsSet reports whether the event has fired.
func (e *Event) IsSet() bool { return e.set }

// Set fires the event, waking all waiters. Idempotent.
func (e *Event) Set() {
	if e.set {
		return
	}
	e.set = true
	for _, w := range e.waiters {
		w.fire()
		w.recycle()
	}
	e.waiters = nil
}

// Wait blocks until the event is set.
func (e *Event) Wait(p *Proc) {
	if e.set {
		return
	}
	e.waiters = append(e.waiters, newWaiter(p))
	p.park("Event.Wait")
}

// Cond is a condition variable: Wait parks until a Broadcast.
// Unlike sync.Cond there is no associated lock; the single-threaded kernel
// makes check-then-wait atomic as long as no blocking call intervenes.
type Cond struct {
	k       *Kernel
	waiters []*waiter
}

// NewCond creates a condition variable.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks the process until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.Enlist(p)
	p.park("Cond.Wait")
}

// Enlist queues p for the next Broadcast without parking it, for an
// in-place step (Proc.SleepEach) that returns Parked: the Broadcast posts p
// to the ready queue where Wait would have resumed it, and the series' step
// runs there.
func (c *Cond) Enlist(p *Proc) { c.waiters = append(c.waiters, newWaiter(p)) }

// Broadcast wakes every waiting process. The waiter slice is kept for the
// next round of waits.
func (c *Cond) Broadcast() {
	ws := c.waiters
	for i, w := range ws {
		w.fire()
		w.recycle()
		ws[i] = nil
	}
	c.waiters = ws[:0]
}
