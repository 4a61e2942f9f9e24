package sim

import (
	"errors"
	"slices"
	"testing"
	"time"
)

func TestChanRendezvous(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 0)
	var got int
	var sendDone, recvDone time.Duration
	k.Spawn("sender", func(p *Proc) {
		p.Sleep(2 * time.Second)
		if err := ch.Send(p, 42); err != nil {
			t.Errorf("Send: %v", err)
		}
		sendDone = p.Now()
	})
	k.Spawn("recver", func(p *Proc) {
		v, err := ch.Recv(p)
		if err != nil {
			t.Errorf("Recv: %v", err)
		}
		got = v
		recvDone = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
	if recvDone != 2*time.Second || sendDone != 2*time.Second {
		t.Fatalf("rendezvous times send=%v recv=%v, want 2s", sendDone, recvDone)
	}
}

func TestChanBufferedNonBlockingUntilFull(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 2)
	var sentThird time.Duration
	k.Spawn("sender", func(p *Proc) {
		_ = ch.Send(p, 1)
		_ = ch.Send(p, 2)
		if p.Now() != 0 {
			t.Errorf("buffered sends blocked: now=%v", p.Now())
		}
		_ = ch.Send(p, 3) // blocks until a recv frees a slot
		sentThird = p.Now()
	})
	k.Spawn("recver", func(p *Proc) {
		p.Sleep(5 * time.Second)
		v, _ := ch.Recv(p)
		if v != 1 {
			t.Errorf("FIFO violated: got %d, want 1", v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sentThird != 5*time.Second {
		t.Fatalf("third send completed at %v, want 5s", sentThird)
	}
	if ch.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (values 2,3)", ch.Len())
	}
}

func TestChanFIFOAcrossBlockedSenders(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 1)
	var got []int
	k.Spawn("s1", func(p *Proc) { _ = ch.Send(p, 1); _ = ch.Send(p, 2) })
	k.Spawn("s2", func(p *Proc) { p.Sleep(time.Millisecond); _ = ch.Send(p, 3) })
	k.Spawn("r", func(p *Proc) {
		p.Sleep(time.Second)
		for i := 0; i < 3; i++ {
			v, err := ch.Recv(p)
			if err != nil {
				t.Errorf("Recv: %v", err)
			}
			got = append(got, v)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestChanCloseWakesReceivers(t *testing.T) {
	k := New()
	ch := NewChan[string](k, 0)
	var err1 error
	k.Spawn("recver", func(p *Proc) {
		_, err1 = ch.Recv(p)
	})
	k.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Second)
		ch.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(err1, ErrClosed) {
		t.Fatalf("Recv after close = %v, want ErrClosed", err1)
	}
}

func TestChanCloseDrainsBufferFirst(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 4)
	k.Spawn("p", func(p *Proc) {
		_ = ch.Send(p, 7)
		_ = ch.Send(p, 8)
		ch.Close()
		v, err := ch.Recv(p)
		if err != nil || v != 7 {
			t.Errorf("first drain: v=%d err=%v", v, err)
		}
		v, err = ch.Recv(p)
		if err != nil || v != 8 {
			t.Errorf("second drain: v=%d err=%v", v, err)
		}
		_, err = ch.Recv(p)
		if !errors.Is(err, ErrClosed) {
			t.Errorf("after drain err=%v, want ErrClosed", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanSendOnClosed(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 1)
	k.Spawn("p", func(p *Proc) {
		ch.Close()
		if err := ch.Send(p, 1); !errors.Is(err, ErrClosed) {
			t.Errorf("Send on closed = %v, want ErrClosed", err)
		}
		if err := ch.TrySend(1); !errors.Is(err, ErrClosed) {
			t.Errorf("TrySend on closed = %v, want ErrClosed", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanRecvTimeout(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 0)
	k.Spawn("p", func(p *Proc) {
		start := p.Now()
		_, err := ch.RecvTimeout(p, 3*time.Second)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		if p.Now()-start != 3*time.Second {
			t.Errorf("timeout took %v, want 3s", p.Now()-start)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanRecvTimeoutBeatenBySend(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 0)
	k.Spawn("recver", func(p *Proc) {
		v, err := ch.RecvTimeout(p, 10*time.Second)
		if err != nil || v != 5 {
			t.Errorf("v=%d err=%v, want 5,nil", v, err)
		}
		if p.Now() != time.Second {
			t.Errorf("received at %v, want 1s", p.Now())
		}
	})
	k.Spawn("sender", func(p *Proc) {
		p.Sleep(time.Second)
		_ = ch.Send(p, 5)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The canceled timeout must not wake anyone later.
	if k.Now() != time.Second {
		t.Fatalf("clock at %v after run, want 1s (timer not canceled?)", k.Now())
	}
}

func TestChanSendTimeout(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 0)
	k.Spawn("p", func(p *Proc) {
		err := ch.SendTimeout(p, 1, 2*time.Second)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// The timed-out sender's value must not be delivered later.
	k2 := New()
	ch2 := NewChan[int](k2, 0)
	k2.Spawn("s", func(p *Proc) {
		_ = ch2.SendTimeout(p, 99, time.Second)
	})
	k2.Spawn("r", func(p *Proc) {
		p.Sleep(5 * time.Second)
		_, err := ch2.RecvTimeout(p, 0)
		if !errors.Is(err, ErrTimeout) {
			t.Errorf("stale value delivered after sender timed out: %v", err)
		}
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanTryOps(t *testing.T) {
	k := New()
	ch := NewChan[int](k, 1)
	if _, err := ch.TryRecv(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("TryRecv empty = %v, want ErrTimeout", err)
	}
	if err := ch.TrySend(1); err != nil {
		t.Fatalf("TrySend with space = %v", err)
	}
	if err := ch.TrySend(2); !errors.Is(err, ErrTimeout) {
		t.Fatalf("TrySend full = %v, want ErrTimeout", err)
	}
	v, err := ch.TryRecv()
	if err != nil || v != 1 {
		t.Fatalf("TryRecv = %d,%v", v, err)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := New()
	sem := NewSemaphore(k, 2)
	inFlight, maxInFlight := 0, 0
	for i := 0; i < 6; i++ {
		k.Spawn("worker", func(p *Proc) {
			sem.Acquire(p)
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			p.Sleep(time.Second)
			inFlight--
			sem.Release()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInFlight != 2 {
		t.Fatalf("max in flight = %d, want 2", maxInFlight)
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("6 jobs x 1s at width 2 took %v, want 3s", k.Now())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	k := New()
	sem := NewSemaphore(k, 1)
	if !sem.TryAcquire() {
		t.Fatal("TryAcquire with count 1 failed")
	}
	if sem.TryAcquire() {
		t.Fatal("TryAcquire with count 0 succeeded")
	}
	sem.Release()
	if sem.Available() != 1 {
		t.Fatalf("Available = %d, want 1", sem.Available())
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	k := New()
	mu := NewMutex(k)
	var holder int
	for i := 1; i <= 3; i++ {
		i := i
		k.Spawn("p", func(p *Proc) {
			mu.Lock(p)
			holder = i
			p.Sleep(time.Second)
			if holder != i {
				t.Errorf("critical section violated: holder=%d, want %d", holder, i)
			}
			mu.Unlock()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("3 serialized sections took %v, want 3s", k.Now())
	}
}

func TestEventBroadcast(t *testing.T) {
	k := New()
	ev := NewEvent(k)
	woke := 0
	for i := 0; i < 5; i++ {
		k.Spawn("waiter", func(p *Proc) {
			ev.Wait(p)
			woke++
			if p.Now() != time.Second {
				t.Errorf("woke at %v, want 1s", p.Now())
			}
		})
	}
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(time.Second)
		ev.Set()
		ev.Set() // idempotent
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
	if !ev.IsSet() {
		t.Fatal("IsSet = false after Set")
	}
}

func TestEventWaitAfterSetReturnsImmediately(t *testing.T) {
	k := New()
	ev := NewEvent(k)
	ev.Set()
	k.Spawn("p", func(p *Proc) {
		ev.Wait(p)
		if p.Now() != 0 {
			t.Errorf("Wait on set event advanced clock to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventWaitTimeout(t *testing.T) {
	k := New()
	ev := NewEvent(k)
	k.Spawn("p", func(p *Proc) {
		if ev.WaitTimeout(p, time.Second) {
			t.Error("WaitTimeout reported set on unset event")
		}
		if p.Now() != time.Second {
			t.Errorf("timed out at %v, want 1s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := New()
	c := NewCond(k)
	var woke []time.Duration
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			c.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	k.Spawn("broadcaster", func(p *Proc) {
		p.Sleep(time.Second)
		c.Broadcast()
		p.Sleep(time.Second)
		c.Broadcast() // no waiters left: a no-op
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(woke, []time.Duration{time.Second, time.Second, time.Second}) {
		t.Fatalf("woke at %v, want all three at 1s", woke)
	}
}
