package transport

import (
	"sync"
	"testing"
	"time"
)

func TestTCPQueueFIFO(t *testing.T) {
	env := NewTCPEnv("h")
	q := NewQueue[int](env)
	for i := 0; i < 10; i++ {
		q.Put(env, i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := q.Get(env)
		if !ok || v != i {
			t.Fatalf("Get = %d,%v want %d", v, ok, i)
		}
	}
	if _, ok := q.TryGet(env); ok {
		t.Fatal("TryGet on empty queue succeeded")
	}
}

func TestTCPQueueBlockingGet(t *testing.T) {
	env := NewTCPEnv("h")
	q := NewQueue[string](env)
	done := make(chan string, 1)
	go func() {
		v, _ := q.Get(env)
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	q.Put(env, "late")
	select {
	case v := <-done:
		if v != "late" {
			t.Fatalf("got %q", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get never woke")
	}
}

func TestTCPQueueGetTimeout(t *testing.T) {
	env := NewTCPEnv("h")
	q := NewQueue[int](env)
	_, ok, timedOut := q.GetTimeout(env, 20*time.Millisecond)
	if ok || !timedOut {
		t.Fatalf("ok=%v timedOut=%v", ok, timedOut)
	}
	q.Put(env, 7)
	v, ok, timedOut := q.GetTimeout(env, time.Second)
	if !ok || timedOut || v != 7 {
		t.Fatalf("v=%d ok=%v timedOut=%v", v, ok, timedOut)
	}
}

// TestTCPQueueGetTimeoutWakesOnPut: a timed Get is a wait, woken by whichever
// of Put, Close and the deadline comes first, not a poll of the queue.
func TestTCPQueueGetTimeoutWakesOnPut(t *testing.T) {
	env := NewTCPEnv("h")
	q := NewQueue[int](env)
	go func() {
		time.Sleep(200 * time.Microsecond)
		q.Put(env, 7)
	}()
	start := time.Now()
	v, ok, timedOut := q.GetTimeout(env, time.Second)
	if !ok || timedOut || v != 7 {
		t.Fatalf("v=%d ok=%v timedOut=%v, want the value put during the wait", v, ok, timedOut)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("a Put 200us into a 1s wait was returned after %v", waited)
	}

	go func() {
		time.Sleep(200 * time.Microsecond)
		q.Close()
	}()
	start = time.Now()
	_, ok, timedOut = q.GetTimeout(env, time.Second)
	if ok || timedOut {
		t.Fatalf("Close during the wait: ok=%v timedOut=%v, want closed, not timeout", ok, timedOut)
	}
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Fatalf("a Close 200us into a 1s wait was noticed after %v", waited)
	}
}

func TestTCPQueueCloseDrains(t *testing.T) {
	env := NewTCPEnv("h")
	q := NewQueue[int](env)
	q.Put(env, 1)
	q.Close()
	if v, ok := q.Get(env); !ok || v != 1 {
		t.Fatalf("drain after close = %d,%v", v, ok)
	}
	if _, ok := q.Get(env); ok {
		t.Fatal("Get on closed+empty returned ok")
	}
	_, ok, timedOut := q.GetTimeout(env, time.Second)
	if ok || timedOut {
		t.Fatalf("GetTimeout on closed: ok=%v timedOut=%v (want closed, not timeout)", ok, timedOut)
	}
}

func TestTCPQueueConcurrentProducersConsumers(t *testing.T) {
	env := NewTCPEnv("h")
	q := NewQueue[int](env)
	const producers, perProducer = 4, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Put(env, base+i)
			}
		}(p * perProducer)
	}
	seen := make([]bool, producers*perProducer)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 3; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := q.Get(env)
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("value %d delivered twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Drain then close once everything is consumed.
	for q.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	cg.Wait()
	for i, s := range seen {
		if !s {
			t.Fatalf("value %d lost", i)
		}
	}
}

func TestTCPMutex(t *testing.T) {
	env := NewTCPEnv("h")
	mu := env.NewMutex()
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				mu.Lock(env)
				counter++
				mu.Unlock(env)
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000 (mutual exclusion broken)", counter)
	}
}
