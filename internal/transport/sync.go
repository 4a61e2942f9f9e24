package transport

import (
	"sync"
	"time"
)

// Mutex is an environment-portable mutual-exclusion lock: backed by
// sync.Mutex on real TCP environments and by a virtual-time lock in the
// simulator. Obtain one from Env.NewMutex.
type Mutex interface {
	// Lock blocks the calling process until the lock is held.
	Lock(env Env)
	// Unlock releases the lock.
	Unlock(env Env)
}

// AnyQueue is an unbounded FIFO usable from any Env implementation. It is
// the portable building block under the Nexus message mailboxes and the MPI
// unexpected-message queues. Obtain one from Env.NewQueue; wrap it with
// Queue[T] for type safety.
type AnyQueue interface {
	// Put appends v; it never blocks.
	Put(env Env, v interface{})
	// Get blocks until a value is available; ok is false once the queue is
	// closed and drained.
	Get(env Env) (v interface{}, ok bool)
	// TryGet removes the head if one is immediately available.
	TryGet(env Env) (v interface{}, ok bool)
	// GetTimeout is Get bounded by d; timedOut reports expiry.
	GetTimeout(env Env, d time.Duration) (v interface{}, ok, timedOut bool)
	// Close marks the queue finished; blocked Gets drain then report !ok.
	Close()
	// Len reports the queued element count.
	Len() int
}

// Queue adds compile-time element typing over an AnyQueue.
type Queue[T any] struct {
	Q AnyQueue
}

// NewQueue creates a typed queue on env.
func NewQueue[T any](env Env) Queue[T] {
	return Queue[T]{Q: env.NewQueue()}
}

// Put appends v.
func (q Queue[T]) Put(env Env, v T) { q.Q.Put(env, v) }

// Get blocks for the next value.
func (q Queue[T]) Get(env Env) (T, bool) {
	v, ok := q.Q.Get(env)
	if !ok {
		var zero T
		return zero, false
	}
	// Comma-ok assertion: a nil interface (e.g. a nil error Put through the
	// untyped queue) yields T's zero value instead of panicking.
	tv, _ := v.(T)
	return tv, true
}

// TryGet pops the head if available.
func (q Queue[T]) TryGet(env Env) (T, bool) {
	v, ok := q.Q.TryGet(env)
	if !ok {
		var zero T
		return zero, false
	}
	tv, _ := v.(T)
	return tv, true
}

// GetTimeout is Get bounded by d.
func (q Queue[T]) GetTimeout(env Env, d time.Duration) (v T, ok, timedOut bool) {
	av, ok, timedOut := q.Q.GetTimeout(env, d)
	if !ok {
		var zero T
		return zero, ok, timedOut
	}
	tv, _ := av.(T)
	return tv, true, false
}

// Close marks the queue finished.
func (q Queue[T]) Close() { q.Q.Close() }

// Len reports the queued element count.
func (q Queue[T]) Len() int { return q.Q.Len() }

// ---- real (goroutine) implementations ----

type tcpMutex struct{ mu sync.Mutex }

func (m *tcpMutex) Lock(env Env)   { m.mu.Lock() }
func (m *tcpMutex) Unlock(env Env) { m.mu.Unlock() }

// NewMutex returns a goroutine-backed Mutex.
func (e *TCPEnv) NewMutex() Mutex { return &tcpMutex{} }

type tcpQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []interface{}
	closed bool
}

// NewQueue returns a goroutine-backed AnyQueue.
func (e *TCPEnv) NewQueue() AnyQueue {
	q := &tcpQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *tcpQueue) Put(env Env, v interface{}) {
	q.mu.Lock()
	q.items = append(q.items, v)
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *tcpQueue) Get(env Env) (interface{}, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.pop()
}

func (q *tcpQueue) TryGet(env Env) (interface{}, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pop()
}

// pop removes the head, if there is one; the caller holds mu.
func (q *tcpQueue) pop() (interface{}, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

func (q *tcpQueue) GetTimeout(env Env, d time.Duration) (interface{}, bool, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 && !q.closed {
		// sync.Cond has no timed wait, so the deadline is one more waker: a
		// timer that sets expired under the lock and broadcasts as Put and
		// Close do.
		expired := false
		t := time.AfterFunc(d, func() {
			q.mu.Lock()
			expired = true
			q.mu.Unlock()
			q.cond.Broadcast()
		})
		defer t.Stop()
		for len(q.items) == 0 && !q.closed && !expired {
			q.cond.Wait()
		}
	}
	v, ok := q.pop()
	return v, ok, !ok && !q.closed
}

func (q *tcpQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

func (q *tcpQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
