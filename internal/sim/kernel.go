// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock and runs simulated processes, each of
// which is an ordinary Go function executing as a coroutine. Scheduling
// is cooperative and strictly sequential: exactly one process runs at a time,
// and control returns to the kernel whenever a process blocks on a kernel
// primitive (Sleep, channel operations, semaphores, ...). This yields
// deterministic, reproducible runs regardless of GOMAXPROCS, which is what the
// wide-area cluster experiments require: parallel speedup is measured in
// virtual time, not wall-clock time.
//
// The design follows the classic process-interaction style of SimPy/CSIM:
// an event queue ordered by (time, sequence) drives timer wakeups, and a FIFO
// ready queue holds work runnable at the current instant.
//
// # Fast path
//
// The hot paths are allocation-free in steady state: event records are
// recycled through a kernel-owned free list, the Sleep/timeout paths wake
// their target directly instead of allocating a callback closure, events
// scheduled for the current instant bypass the timer heap entirely, and the
// timer heap itself is a 4-ary index-aware heap so Timer.Stop removes its
// event in O(log n) instead of leaking it until popped. Events whose delay is
// a per-link constant, and the wakeups of a SleepEach series that repeats its
// slice, skip the heap: they ride a Lane, a FIFO that is sorted by
// construction, and the dequeue merges the lane heads with the heap top in
// the same (time, sequence) order. Kernel-aware
// subsystems (the simnet link pumps) can also enter the ready queue as
// inline Tasks, which run in place on whichever stack is scheduling and cost
// no switch at all.
//
// # Coroutine processes
//
// A process is a runtime coroutine (iter.Pull), not a goroutine the Go
// scheduler has to find a P for: the caller of Run/RunUntil/Step resumes it
// with next, it gives control back with yield, and both are a direct switch
// of the running thread. The scheduling loop (next) runs on whichever stack
// holds control: the caller's, or that of a process that is parking or
// exiting. A parking process that finds itself next in the ready queue simply
// returns (no switch); finding another process next, it leaves it in pending
// and yields, and the caller resumes that one (two switches). An After
// callback is never fired from a process's stack: those are where Kill is
// reached, and Kill unwinds its victim by resuming it — impossible from the
// victim's own stack. Step keeps strict single-step semantics: under it a
// parking process yields at once. A process's panic, or its runtime.Goexit,
// comes out of Run/RunUntil/Step on the caller's goroutine.
//
// # In-place steps
//
// Proc.SleepEach runs a loop of blocking waits with work between them
// without resuming the process in between: at each wakeup, where the ready
// queue would have resumed the process, the scheduling loop calls the
// process's step in place. A step ends by asking for a sleep (the kernel
// reschedules the process exactly as its own Sleep would have), by returning
// Parked after enlisting the process on a primitive (Cond.Enlist,
// Semaphore.Enlist: the primitive's wakeup posts it again, where it would
// have resumed it), or by handing back (0: the process resumes). So events,
// sequence numbers and ready order are the blocking loop's while a series of
// N wakeups costs no more switches than one. A step is inline work: it must
// never block (park panics under it, naming the process), never Kill or
// Shutdown, and must hand back before any side effect the process has to
// make itself; it is not called once the process is killed, and its panic is
// a kernel-context panic that names the process.
package sim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"
)

// ErrDeadlock is returned by Run when live processes remain but no event can
// ever wake them.
var ErrDeadlock = errors.New("sim: deadlock: processes blocked with empty event queue")

// errKilled is panicked inside parked processes when the kernel shuts down.
var errKilled = errors.New("sim: process killed by kernel shutdown")

// kernelPanic is how a panic inside an inline Task or EventHandler travels up
// the stack of the process that happened to be running it, so that
// the process's own recover does not take the blame.
type kernelPanic string

// noHorizon is the horizon of a run that is not bounded in virtual time.
const noHorizon = time.Duration(math.MaxInt64)

// Event queue position markers for event.idx.
const (
	idxNone = -1 // not queued (free, or already fired)
	idxDue  = -2 // in the same-instant due queue
)

// maxEventPool bounds the recycled-event free list.
const maxEventPool = 1 << 14

// maxWaiterPool bounds the recycled-waiter free list.
const maxWaiterPool = 1 << 12

// maxLanes bounds the kernel's lanes: every dequeue scans each lane head, so
// delays past the first maxLanes distinct ones go through the heap instead.
const maxLanes = 8

// laneKey is a lane head's (at, seq), kept in Kernel.heads so the dequeue
// scans the heads without touching their events. An empty lane's key,
// noLaneKey, sorts after every event.
type laneKey struct {
	at  time.Duration
	seq uint64
}

var noLaneKey = laneKey{noHorizon, math.MaxUint64}

// event is a scheduled occurrence on the virtual timeline. Exactly one of
// task, w, h, or fn describes what firing it does:
//
//   - task: post the task (a parked process or an inline continuation) to
//     the ready queue — the closure-free Sleep/wakeup path;
//   - w: fire the waiter as a timeout — the closure-free timeout path;
//   - h: invoke OnEvent inline — the closure-free After path;
//   - fn: invoke the callback (the general After path).
//
// Events are pooled: gen increments on every recycle so a stale Timer
// handle can detect that its event has moved on.
type event struct {
	at  time.Duration
	seq uint64
	idx int32 // heap position, idxDue, or idxNone (also while on a Lane)
	gen uint32
	// canceled events are skipped when dequeued; heap residents are removed
	// eagerly instead, so only due-queue entries ever carry this flag.
	canceled bool
	task     Task
	w        *waiter
	h        EventHandler
	fn       func()
}

// Task is one unit of ready-queue work at the current instant: a parked
// process to resume, or an inline continuation that runs in place on the
// scheduling stack without a context switch (used by the virtual
// network's link pumps). RunTask must return control to the kernel promptly;
// it executes in kernel context, not process context, and that stack may
// be any process's: it must not call Kill or Shutdown (schedule an After
// callback that does).
type Task interface{ RunTask(k *Kernel) }

// EventHandler is the allocation-free analogue of an After callback: when
// the event fires, OnEvent runs inline in kernel context, under the same
// rules as an inline Task. Hot-path subsystems implement it on pooled objects
// (e.g. in-flight network segments) to avoid a closure per event.
type EventHandler interface{ OnEvent(k *Kernel) }

// eventHeap is a 4-ary min-heap ordered by (at, seq) that maintains each
// event's position in event.idx, so arbitrary events can be removed when a
// timer is stopped. 4-ary halves the tree depth of the binary heap and keeps
// child scans within one cache line of pointers.
type eventHeap struct{ a []*event }

func eventLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) peek() *event {
	if len(h.a) == 0 {
		return nil
	}
	return h.a[0]
}

func (h *eventHeap) push(ev *event) {
	i := len(h.a)
	h.a = append(h.a, ev)
	ev.idx = int32(i)
	h.siftUp(i)
}

func (h *eventHeap) pop() *event {
	root := h.a[0]
	last := len(h.a) - 1
	moved := h.a[last]
	h.a[last] = nil
	h.a = h.a[:last]
	if last > 0 {
		h.a[0] = moved
		moved.idx = 0
		h.siftDown(0)
	}
	root.idx = idxNone
	return root
}

// remove deletes an event at an arbitrary heap position (Timer.Stop).
func (h *eventHeap) remove(ev *event) {
	i := int(ev.idx)
	last := len(h.a) - 1
	moved := h.a[last]
	h.a[last] = nil
	h.a = h.a[:last]
	if i < last {
		h.a[i] = moved
		moved.idx = int32(i)
		if !h.siftDown(i) {
			h.siftUp(i)
		}
	}
	ev.idx = idxNone
}

func (h *eventHeap) siftUp(i int) {
	ev := h.a[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h.a[parent]
		if !eventLess(ev, p) {
			break
		}
		h.a[i] = p
		p.idx = int32(i)
		i = parent
	}
	h.a[i] = ev
	ev.idx = int32(i)
}

// siftDown reports whether the event moved.
func (h *eventHeap) siftDown(i int) bool {
	ev := h.a[i]
	start := i
	n := len(h.a)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventLess(h.a[c], h.a[min]) {
				min = c
			}
		}
		if !eventLess(h.a[min], ev) {
			break
		}
		h.a[i] = h.a[min]
		h.a[i].idx = int32(i)
		i = min
	}
	h.a[i] = ev
	ev.idx = int32(i)
	return i != start
}

// fifo is a slice-backed FIFO with an amortized-O(1) pop: a head index
// advances instead of shifting elements, and the backing slice is compacted
// only once the dead prefix reaches half its length.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) push(v T) { q.buf = append(q.buf, v) }

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// peek returns the head without removing it; the queue must be non-empty.
func (q *fifo[T]) peek() T { return q.buf[q.head] }

func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf = q.buf[:0]
		q.head = 0
	case q.head >= 64 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = zero
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return v
}

// Kernel is a discrete-event simulator instance. It is not safe for
// concurrent use from multiple goroutines except through its own process
// scheduling: all simulated code runs under the kernel's control.
type Kernel struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	lanes  []*Lane           // constant-delay FIFOs, merged with events by (at, seq)
	heads  [maxLanes]laneKey // heads[i] is lanes[i]'s head, noLaneKey when empty
	due    fifo[*event]      // events scheduled for the current instant
	ready  fifo[Task]        // work runnable at the current instant, FIFO
	free   []*event          // recycled event records
	// freeWaiters recycles the waiters of Cond, Semaphore and Event.
	freeWaiters []*waiter
	procs       map[int]*Proc // processes that have not exited
	live        int           // non-daemon entries of procs
	nextPID     int
	// current is the process that holds control, running either its own code
	// or the scheduling loop; nil while the caller of Run/RunUntil/Step holds
	// it.
	current *Proc
	// pending is the process a parking or exiting one found next in line, for
	// the caller to resume once control is back with it.
	pending *Proc
	// inline is the Task or EventHandler running in place right now (it stays
	// set while that work's panic travels up to dispatch): Kill and Shutdown
	// refuse to run under it, and a panic inside it is not blamed on the
	// process whose stack ran it.
	inline   any
	horizon  time.Duration // next does not advance the clock beyond it
	stepping bool          // Step is resuming a process
	switches uint64        // coroutine switches performed (tests)
	stopped  bool
	rng      uint64 // splitmix64 state; zero until Seed (Rand self-seeds to 1)
	// Trace, when non-nil, receives a line for every process start/exit and
	// every Sleep wakeup. Used by experiment harnesses to render timelines.
	Trace func(at time.Duration, format string, args ...interface{})
}

// New creates an empty simulation kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{procs: make(map[int]*Proc)}
}

// Now reports the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Seed initializes the kernel's random stream. Simulations that want
// distinct-but-reproducible randomness (retry jitter, randomized placement)
// call Seed once before Run; leaving it unseeded is equivalent to Seed(1).
func (k *Kernel) Seed(s uint64) { k.rng = s }

// Rand returns the next value of the kernel's deterministic random stream
// (splitmix64). Because all simulated code runs under the kernel's
// cooperative scheduler, draw order — and therefore every value — is a pure
// function of the seed and the simulation itself, independent of GOMAXPROCS.
// This is the only randomness source simulated code may use: anything global
// (math/rand, crypto/rand, wall clock) would break reproducibility.
func (k *Kernel) Rand() uint64 {
	if k.rng == 0 {
		k.rng = 1
	}
	k.rng += 0x9e3779b97f4a7c15
	z := k.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newEvent takes an event record from the pool (or allocates one) and stamps
// it with the next sequence number.
func (k *Kernel) newEvent(at time.Duration) *event {
	k.seq++
	var ev *event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq = at, k.seq
	return ev
}

// release recycles a fired or canceled event. The generation bump
// invalidates any Timer still holding the record.
func (k *Kernel) release(ev *event) {
	ev.gen++
	ev.task, ev.w, ev.h, ev.fn = nil, nil, nil, nil
	ev.idx = idxNone
	ev.canceled = false
	if len(k.free) < maxEventPool {
		k.free = append(k.free, ev)
	}
}

// place queues a stamped event: the timer heap for future instants, the due
// FIFO for the current one. Due entries always carry larger sequence numbers
// than any heap resident at the current instant (the clock only reaches an
// instant by popping its first heap event), so draining heap events at the
// current time before the due queue preserves strict (at, seq) firing order.
func (k *Kernel) place(ev *event) {
	if ev.at <= k.now {
		ev.at = k.now
		ev.idx = idxDue
		k.due.push(ev)
		return
	}
	k.events.push(ev)
}

// schedule enqueues fn to run at virtual time at (>= now).
func (k *Kernel) schedule(at time.Duration, fn func()) *event {
	ev := k.newEvent(at)
	ev.fn = fn
	k.place(ev)
	return ev
}

// scheduleTask enqueues t to be posted to the ready queue at virtual time
// at, with no callback allocation.
func (k *Kernel) scheduleTask(at time.Duration, t Task) *event {
	ev := k.newEvent(at)
	ev.task = t
	k.place(ev)
	return ev
}

// After schedules fn to run after delay d of virtual time. It returns a
// handle that can cancel the callback. After must only be called from kernel
// context (inside an event callback) or before Run; simulated processes
// should use Proc.Sleep or timers instead.
func (k *Kernel) After(d time.Duration, fn func()) *Timer {
	ev := k.schedule(k.now+d, fn)
	return &Timer{k: k, ev: ev, gen: ev.gen}
}

// AfterTask schedules t to be posted to the ready queue after delay d, with
// no closure or Timer allocation. It is the hot-path analogue of
// k.After(d, func() { k.Post(t) }).
func (k *Kernel) AfterTask(d time.Duration, t Task) {
	k.scheduleTask(k.now+d, t)
}

// AfterEvent schedules h.OnEvent to run inline after delay d, with no
// closure or Timer allocation. It is the hot-path analogue of
// k.After(d, func() { h.OnEvent(k) }).
func (k *Kernel) AfterEvent(d time.Duration, h EventHandler) {
	ev := k.newEvent(k.now + d)
	ev.h = h
	k.place(ev)
}

// Lane is a FIFO of events that all fire the same delay after they are
// scheduled. Entries are stamped now+d with rising sequence numbers, so a lane
// is sorted by (at, seq) without a heap, and the kernel dequeues from it in the
// same total order as if every entry had gone through AfterEvent. Lane events
// return no Timer: nothing on a lane can be stopped.
type Lane struct {
	k *Kernel
	d time.Duration
	i int // index in k.lanes and k.heads
	q fifo[*event]
}

// Lane returns the kernel's lane for delay d, created on first use. It
// returns nil when d <= 0 or when the kernel already has its maximum number
// of lanes; schedule with AfterEvent then.
func (k *Kernel) Lane(d time.Duration) *Lane {
	if d <= 0 {
		return nil
	}
	for _, l := range k.lanes {
		if l.d == d {
			return l
		}
	}
	if len(k.lanes) == maxLanes {
		return nil
	}
	l := &Lane{k: k, d: d, i: len(k.lanes)}
	k.lanes = append(k.lanes, l)
	k.heads[l.i] = noLaneKey
	return l
}

// AfterEvent schedules h.OnEvent to run inline after the lane's delay: the
// same firing as k.AfterEvent(d, h), with no heap push.
func (l *Lane) AfterEvent(h EventHandler) {
	ev := l.k.newEvent(l.k.now + l.d)
	ev.h = h
	l.push(ev)
}

// afterTask is AfterEvent for a Task: the same firing as
// k.scheduleTask(now+d, t), with no heap push.
func (l *Lane) afterTask(t Task) {
	ev := l.k.newEvent(l.k.now + l.d)
	ev.task = t
	l.push(ev)
}

func (l *Lane) push(ev *event) {
	if l.q.len() == 0 {
		l.k.heads[l.i] = laneKey{ev.at, ev.seq}
	}
	l.q.push(ev)
}

func (l *Lane) pop() *event {
	ev := l.q.pop()
	if l.q.len() == 0 {
		l.k.heads[l.i] = noLaneKey
	} else {
		h := l.q.peek()
		l.k.heads[l.i] = laneKey{h.at, h.seq}
	}
	return ev
}

// queued reports whether any event waits in the heap or on a lane.
func (k *Kernel) queued() bool {
	if k.events.len() > 0 {
		return true
	}
	for _, l := range k.lanes {
		if l.q.len() > 0 {
			return true
		}
	}
	return false
}

// Post appends t to the ready queue: it will run at the current virtual
// instant, after work already queued.
func (k *Kernel) Post(t Task) { k.ready.push(t) }

// Timer is a cancelable scheduled callback.
type Timer struct {
	k   *Kernel
	ev  *event
	gen uint32
}

// Stop cancels the timer if it has not fired. It reports whether the
// callback was prevented from running. Stopping a pending timer removes its
// event from the queue immediately, so long-lived simulations that arm and
// cancel many timeouts do not accumulate dead events.
func (t *Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.canceled {
		return false
	}
	if ev.idx >= 0 {
		t.k.events.remove(ev)
		t.k.release(ev)
		return true
	}
	// Due-queue entries are skipped (and recycled) when dequeued.
	ev.canceled = true
	return true
}

// Spawn creates a new simulated process running fn and makes it runnable at
// the current virtual time. fn receives the process handle used for all
// blocking operations.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, false)
}

// SpawnDaemon creates a daemon process: one that provides a service forever
// (link pumps, relay servers, gatekeepers). Daemons do not count as live
// work — Run returns successfully once only daemons remain blocked, and a
// run with daemons parked is not a deadlock.
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, true)
}

func (k *Kernel) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	k.nextPID++
	p := &Proc{k: k, pid: k.nextPID, name: name, daemon: daemon}
	p.next, p.stop = pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.run(fn)
	})
	k.procs[p.pid] = p
	if !daemon {
		k.live++
	}
	k.ready.push(p)
	return p
}

// nextEvent dequeues the next event in strict (at, seq) order that fires at or
// before the horizon, advancing the clock when the timeline moves forward;
// nil when there is none. The timed candidates are the heap top and each lane
// head, each the least of its own queue. Canceled due-queue entries are
// skipped and recycled. Same-instant work (heap and lane residents at now,
// which predate every due entry, then the due queue) does not consult the
// horizon: the clock does not move. With holdFn an After callback is not
// dequeued: nil is returned and it stays next in line.
func (k *Kernel) nextEvent(horizon time.Duration, holdFn bool) *event {
	ev := k.events.peek()
	best := noLaneKey
	if ev != nil {
		best = laneKey{ev.at, ev.seq}
	}
	var lane *Lane
	for i, h := range k.heads[:len(k.lanes)] {
		if h.at < best.at || h.at == best.at && h.seq < best.seq {
			best, lane = h, k.lanes[i]
		}
	}
	if lane != nil {
		ev = lane.q.peek()
	}
	fromDue := false
	if ev == nil || ev.at > k.now {
		for k.due.len() > 0 && k.due.peek().canceled {
			k.release(k.due.pop())
		}
		if k.due.len() > 0 {
			ev, fromDue = k.due.peek(), true
		}
	}
	if ev == nil || (holdFn && ev.fn != nil) {
		return nil
	}
	if fromDue {
		return k.due.pop()
	}
	if ev.at > k.now {
		if ev.at > horizon {
			return nil
		}
		k.now = ev.at
	}
	if lane != nil {
		return lane.pop()
	}
	return k.events.pop()
}

// runInline runs an inline Task in place.
func (k *Kernel) runInline(t Task) {
	k.inline = t
	t.RunTask(k)
	k.inline = nil
}

// fire dispatches a dequeued event and recycles its record.
func (k *Kernel) fire(ev *event) {
	switch {
	case ev.task != nil:
		t := ev.task
		k.release(ev)
		k.ready.push(t)
	case ev.w != nil:
		w := ev.w
		k.release(ev)
		if !w.fired {
			w.fired = true
			w.timedOut = true
			w.p.wake()
		}
	case ev.h != nil:
		h := ev.h
		k.release(ev)
		k.inline = h
		h.OnEvent(k)
		k.inline = nil
	default:
		fn := ev.fn
		k.release(ev)
		fn()
	}
}

// next is the scheduling loop: it runs the simulation in place — inline Tasks
// and closure-free events — until a process has to run, and returns that
// process. It returns nil when no work is left before the horizon, when the
// kernel is stopped, or, with the loop on a process's stack (inProc), when
// an After callback is next: those fire only on the caller's stack (see the
// package comment).
//
// A task event dequeued here finds the ready queue empty, so the task it
// would post is the very next one popped: the loop runs it at once instead.
func (k *Kernel) next(inProc bool) *Proc {
	for !k.stopped {
		var t Task
		if k.ready.len() > 0 {
			t = k.ready.pop()
		} else {
			ev := k.nextEvent(k.horizon, inProc)
			if ev == nil {
				break
			}
			if t = ev.task; t == nil {
				k.fire(ev)
				continue
			}
			k.release(ev)
		}
		if p, isProc := t.(*Proc); !isProc {
			k.runInline(t)
		} else if k.wakes(p) {
			return p
		}
	}
	return nil
}

// wakes decides for p, just taken from the ready queue, whether it is to be
// resumed: not when it has exited, nor when it is in a SleepEach series whose
// step, run here in place, asks for another slice (p is rescheduled exactly
// as its own Sleep would have done) or has enlisted p on a primitive (whose
// wakeup posts p again, as it would have resumed the parked process).
func (k *Kernel) wakes(p *Proc) bool {
	if p.exited {
		return false
	}
	if p.each == nil {
		return true
	}
	switch d := k.slice(p); {
	case d > 0:
		k.sleepSlice(p, d)
		return false
	case d == Parked:
		return false
	}
	p.each = nil
	return true
}

// sleepSlice schedules p's wakeup d from now, exactly as Sleep(d) would. A
// series that repeats its slice rides the lane for d: only a slice of the
// same d as p's previous one asks for a lane, so one-off delays do not use
// up the kernel's lanes.
func (k *Kernel) sleepSlice(p *Proc, d time.Duration) {
	var l *Lane
	if p.lastSlice == d {
		l = k.Lane(d)
	}
	p.lastSlice = d
	if l != nil {
		l.afterTask(p)
		return
	}
	k.scheduleTask(k.now+d, p)
}

// slice runs p's SleepEach step as inline work. Its panic is the step's,
// not the scheduling process's: it names p and travels as a kernel-context
// panic (a plain string on the caller's own stack).
func (k *Kernel) slice(p *Proc) time.Duration {
	defer func() {
		if r := recover(); r != nil {
			k.inline = nil
			msg := fmt.Sprintf("sim: kernel-context panic in slice of process %q: %v", p.name, r)
			if k.current != nil {
				panic(kernelPanic(msg))
			}
			panic(msg)
		}
	}()
	k.inline = p
	d := p.each()
	k.inline = nil
	return d
}

// run is Run and RunUntil: the caller resumes whichever process the last one
// found next, or schedules in place until a process is due, and carries on
// when control comes back.
func (k *Kernel) run(horizon time.Duration) {
	k.horizon = horizon
	for {
		p := k.pending
		if k.pending = nil; p == nil {
			if p = k.next(false); p == nil {
				return
			}
		}
		k.resume(p)
	}
}

// resume lends control to p until it yields or exits: one coroutine switch
// in, one back. Only the goroutine driving Run/RunUntil/Step calls it.
func (k *Kernel) resume(p *Proc) {
	k.current = p
	k.switches += 2
	p.next()
	k.current = nil
}

// dispatch schedules onwards on the stack of self, a process that is parking
// or has just exited. It reports whether self turned out to be next itself
// (no switch); otherwise whoever is next — nil for the caller to go and look —
// is left in pending, and a parking self must now yield. It never resumes the
// next process itself: every park would nest the chain of callers one deeper.
// Under Step it does nothing: the caller asked for one unit of work.
func (k *Kernel) dispatch(self *Proc) (resumed bool) {
	if k.stepping {
		return false
	}
	// Whatever panics through here is the inline work next was running in
	// place, not the process: say so, and name the work.
	defer func() {
		if r := recover(); r != nil {
			if kp, named := r.(kernelPanic); named { // a slice's, see slice
				panic(kp)
			}
			msg := fmt.Sprintf("sim: kernel-context panic in %T: %v", k.inline, r)
			k.inline = nil
			panic(kernelPanic(msg))
		}
	}()
	p := k.next(true)
	if p == self {
		return true
	}
	k.pending = p
	return false
}

// Step executes the next unit of work: either runs a ready task or advances
// the clock to the next event and fires it. It reports whether any work was
// performed. A process resumed by Step returns control to the caller when it
// next parks, rather than scheduling onwards itself; a process in a SleepEach
// series runs one slice, and is resumed in the same Step only when that
// slice hands back.
func (k *Kernel) Step() bool {
	if k.stopped {
		return false
	}
	if k.ready.len() > 0 {
		t := k.ready.pop()
		if p, isProc := t.(*Proc); isProc {
			if k.wakes(p) {
				p.RunTask(k)
			}
		} else {
			k.runInline(t)
		}
		return true
	}
	if ev := k.nextEvent(noHorizon, false); ev != nil {
		k.fire(ev)
		return true
	}
	return false
}

// Run drives the simulation until no work remains. It returns nil when every
// process has exited, and ErrDeadlock, naming the stuck processes, when live
// ones remain blocked with no pending events.
func (k *Kernel) Run() error {
	k.run(noHorizon)
	if k.live > 0 && !k.stopped {
		return fmt.Errorf("%w (%d live:%s)", ErrDeadlock, k.live, k.stuck())
	}
	return nil
}

// stuck lists the live non-daemon processes as " name#pid" in PID order: the
// first 8, then how many more there are.
func (k *Kernel) stuck() string {
	var b strings.Builder
	n := 0
	for pid := 1; pid <= k.nextPID && n < k.live; pid++ {
		if p := k.procs[pid]; p != nil && !p.daemon {
			if n++; n > 8 {
				fmt.Fprintf(&b, " +%d more", k.live-8)
				break
			}
			fmt.Fprintf(&b, " %s#%d", p.name, pid)
		}
	}
	return b.String()
}

// RunUntil drives the simulation until virtual time t is reached, all work is
// exhausted, or the kernel is stopped. The clock is left at min(t, last event
// time) or exactly t if work remains beyond it.
func (k *Kernel) RunUntil(t time.Duration) {
	k.run(t)
	if !k.stopped && k.queued() {
		k.now = t
	}
}

// Live reports the number of non-daemon processes that have not exited.
func (k *Kernel) Live() int { return k.live }

// Events reports the total number of events stamped since the kernel was
// created — every timer, wakeup, and network hop increments it exactly once.
// It is the simulator's natural work metric: fleet-scale throughput is
// reported as stamped events per wall-clock second.
func (k *Kernel) Events() uint64 { return k.seq }

// Kill terminates a single process: it is resumed with a kill signal and
// unwinds its stack immediately (deferred functions run before Kill returns),
// exactly like one process's share of Shutdown. Pending timers referencing
// the process become no-ops. Kill models a host crash taking a process down
// mid-flight.
//
// Kill must be called from an event callback (After) or between runs — never
// from a running process, nor from an inline Task or EventHandler, whose
// stack may be the victim's own and so could not be unwound from there.
func (k *Kernel) Kill(p *Proc) {
	if p == nil || p.exited || p.killed {
		return
	}
	k.mustNotBeInline("Kill")
	if k.current != nil {
		panic("sim: Kill must be called from kernel context, not from a process")
	}
	p.kill()
}

// mustNotBeInline panics when an inline Task or EventHandler is what is
// calling op — whichever stack happens to be running it, so the rule does
// not depend on who was scheduling.
func (k *Kernel) mustNotBeInline(op string) {
	if k.inline != nil {
		panic(fmt.Sprintf("sim: %s called from inline %T; schedule an After callback instead", op, k.inline))
	}
}

// Shutdown terminates the simulation: every parked process is resumed with a
// kill signal, in PID order, unwinding its stack so goroutines do not leak.
// The kernel cannot be used after Shutdown.
//
// Shutdown may be called from a running process (which survives it), from an
// event callback (After) or between runs — not from an inline Task or
// EventHandler: the process whose stack is lending it the scheduling loop
// could be neither unwound nor left parked.
func (k *Kernel) Shutdown() {
	if k.stopped {
		return
	}
	k.mustNotBeInline("Shutdown")
	k.stopped = true
	// PIDs count up from 1, so this also reaps whatever the unwinding spawns
	// (deferred cleanup). Skipped: the caller's own process, and one whose
	// unwinding is what called Shutdown — neither can resume itself.
	for pid := 1; pid <= k.nextPID; pid++ {
		if p := k.procs[pid]; p != nil && p != k.current && !p.killed {
			p.kill()
		}
	}
}

func (k *Kernel) tracef(format string, args ...interface{}) {
	if k.Trace != nil {
		k.Trace(k.now, format, args...)
	}
}
