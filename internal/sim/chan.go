package sim

import (
	"errors"
	"time"
)

// ErrClosed is returned by channel operations on a closed channel.
var ErrClosed = errors.New("sim: channel closed")

// ErrTimeout is returned by timed channel operations that expire.
var ErrTimeout = errors.New("sim: operation timed out")

// Chan is a typed channel between simulated processes, with semantics close
// to Go channels but executing in virtual time: operations themselves take
// zero virtual time; blocking lasts until a peer acts.
//
// Capacity 0 gives rendezvous semantics; capacity > 0 gives a bounded buffer.
type Chan[T any] struct {
	k        *Kernel
	capacity int
	buf      fifo[T]
	senders  fifo[*chanWaiter[T]] // blocked senders
	recvers  fifo[*chanWaiter[T]] // blocked receivers
	closed   bool
	// free recycles waiters that left their queue delivered or closed; a
	// timed-out one may still sit in its queue and stays garbage.
	free []*chanWaiter[T]
}

type chanWaiter[T any] struct {
	w waiter
	// for senders: value to hand off; for receivers: slot filled by sender.
	val       T
	ok        bool // receiver: value delivered (vs closed/timeout)
	delivered bool // sender: value was taken
}

// newWaiter takes a waiter for p from the channel's free list.
func (c *Chan[T]) newWaiter(p *Proc) *chanWaiter[T] {
	if n := len(c.free); n > 0 {
		cw := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		cw.w.p = p
		return cw
	}
	return &chanWaiter[T]{w: waiter{p: p}}
}

// recycle returns a waiter that left its queue to the free list, unless it
// timed out.
func (c *Chan[T]) recycle(cw *chanWaiter[T]) {
	if cw.w.timedOut {
		return
	}
	*cw = chanWaiter[T]{}
	c.free = append(c.free, cw)
}

// NewChan creates a channel bound to kernel k with the given capacity.
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	return &Chan[T]{k: k, capacity: capacity}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.len() }

// Close marks the channel closed. Blocked receivers wake with ok=false once
// the buffer drains; blocked senders wake with ErrClosed. Close may be called
// from process or kernel context.
func (c *Chan[T]) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for c.senders.len() > 0 {
		c.senders.pop().w.fire()
	}
	if c.buf.len() == 0 {
		for c.recvers.len() > 0 {
			rw := c.recvers.pop()
			rw.ok = false
			rw.w.fire()
		}
	}
}

// popRecver removes and returns the first receiver that has not already been
// woken (e.g. by a timeout), or nil.
func (c *Chan[T]) popRecver() *chanWaiter[T] {
	for c.recvers.len() > 0 {
		if rw := c.recvers.pop(); !rw.w.fired {
			return rw
		}
	}
	return nil
}

func (c *Chan[T]) popSender() *chanWaiter[T] {
	for c.senders.len() > 0 {
		if sw := c.senders.pop(); !sw.w.fired {
			return sw
		}
	}
	return nil
}

// TrySend attempts a non-blocking send. It returns ErrClosed if the channel
// is closed, nil on success, and ErrTimeout (without blocking) if the value
// cannot be handed off immediately.
func (c *Chan[T]) TrySend(v T) error {
	if c.closed {
		return ErrClosed
	}
	if rw := c.popRecver(); rw != nil {
		rw.val, rw.ok = v, true
		rw.w.fire()
		return nil
	}
	if c.buf.len() < c.capacity {
		c.buf.push(v)
		return nil
	}
	return ErrTimeout
}

// Send delivers v, blocking the process in virtual time until a receiver or
// buffer space is available. It returns ErrClosed if the channel is (or
// becomes) closed.
func (c *Chan[T]) Send(p *Proc, v T) error {
	return c.SendTimeout(p, v, -1)
}

// SendTimeout is Send with a timeout; d < 0 means no timeout.
func (c *Chan[T]) SendTimeout(p *Proc, v T, d time.Duration) error {
	if err := c.TrySend(v); err == nil {
		return nil
	} else if errors.Is(err, ErrClosed) {
		return ErrClosed
	}
	if d == 0 {
		return ErrTimeout
	}
	sw := c.newWaiter(p)
	sw.val = v
	c.senders.push(sw)
	if d > 0 {
		sw.w.setTimeout(d)
	}
	p.park("Chan.Send")
	var err error
	switch {
	case sw.delivered:
	case sw.w.timedOut:
		err = ErrTimeout
	default: // woken by Close
		err = ErrClosed
	}
	c.recycle(sw)
	return err
}

// TryRecv attempts a non-blocking receive. ok reports whether a value was
// obtained; err is ErrClosed when the channel is closed and drained, and
// ErrTimeout when no value is immediately available.
func (c *Chan[T]) TryRecv() (v T, err error) {
	if c.buf.len() > 0 {
		v = c.buf.pop()
		// A blocked sender can now use the freed slot.
		if sw := c.popSender(); sw != nil {
			c.buf.push(sw.val)
			sw.delivered = true
			sw.w.fire()
		}
		return v, nil
	}
	// Rendezvous with a blocked sender (capacity 0 path).
	if sw := c.popSender(); sw != nil {
		sw.delivered = true
		sw.w.fire()
		return sw.val, nil
	}
	if c.closed {
		return v, ErrClosed
	}
	return v, ErrTimeout
}

// Recv blocks until a value is available or the channel is closed and
// drained (returning ErrClosed).
func (c *Chan[T]) Recv(p *Proc) (T, error) {
	return c.RecvTimeout(p, -1)
}

// RecvTimeout is Recv with a timeout; d < 0 means no timeout.
func (c *Chan[T]) RecvTimeout(p *Proc, d time.Duration) (T, error) {
	if v, err := c.TryRecv(); err == nil {
		return v, nil
	} else if errors.Is(err, ErrClosed) {
		var zero T
		return zero, ErrClosed
	}
	if d == 0 {
		var zero T
		return zero, ErrTimeout
	}
	rw := c.newWaiter(p)
	c.recvers.push(rw)
	if d > 0 {
		rw.w.setTimeout(d)
	}
	p.park("Chan.Recv")
	v := rw.val
	var err error
	switch {
	case rw.ok:
	case rw.w.timedOut:
		err = ErrTimeout
	default: // woken by Close
		err = ErrClosed
	}
	c.recycle(rw)
	return v, err
}
