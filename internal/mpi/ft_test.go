package mpi

import (
	"fmt"
	"testing"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
)

// TestRecvTimeout: a too-short wait times out without losing messages; a
// long enough wait delivers; non-matching traffic is kept for later; a
// negative wait lasts until the message comes; and every message taken
// counts into mpi.rank<N>.received.
func TestRecvTimeout(t *testing.T) {
	k := sim.New()
	net := simnet.New(k)
	net.Obs = obs.New()
	net.AddRouter("sw", "")
	pls := make([]Placement, 2)
	for i := range pls {
		name := fmt.Sprintf("node%d", i)
		net.AddHost(name, simnet.HostConfig{})
		net.Connect(name, "sw", simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: 12 << 20})
		pls[i] = Placement{Name: name, Spawn: net.Node(name).SpawnOn}
	}
	w := NewWorld(pls)
	var early, late, forever bool
	var gotOther Message
	var at time.Duration
	w.Launch(func(c *Comm) error {
		if c.Rank() == 1 {
			c.Env().Sleep(100 * time.Millisecond)
			if err := c.Send(0, 7, []byte("slow")); err != nil {
				return err
			}
			if err := c.Send(0, 8, []byte("other")); err != nil {
				return err
			}
			c.Env().Sleep(time.Hour)
			return c.Send(0, 9, []byte("last"))
		}
		// Times out before the sender wakes up.
		_, ok, err := c.RecvTimeout(1, 7, 10*time.Millisecond)
		if err != nil {
			return err
		}
		early = ok
		// Long enough: the message arrives.
		m, ok, err := c.RecvTimeout(1, 7, time.Second)
		if err != nil {
			return err
		}
		late = ok && string(m.Data) == "slow"
		// The tag-8 message is still retrievable by a normal Recv.
		if gotOther, err = c.Recv(1, 8); err != nil {
			return err
		}
		m, ok, err = c.RecvTimeout(1, 9, -1)
		forever, at = ok && string(m.Data) == "last", c.Env().Now()
		return err
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if early {
		t.Error("10ms RecvTimeout matched a message sent at t=100ms")
	}
	if !late {
		t.Error("1s RecvTimeout missed the message")
	}
	if string(gotOther.Data) != "other" {
		t.Errorf("tag-8 message = %q", gotOther.Data)
	}
	if !forever || at < time.Hour {
		t.Errorf("RecvTimeout(-1) = %v at %v, want the message sent an hour later", forever, at)
	}
	if n := net.Obs.Metrics().Counter("mpi.rank0.received").Value(); n != 3 {
		t.Errorf("mpi.rank0.received = %d, want 3 (two RecvTimeout, one Recv)", n)
	}
}

// TestRecvTimeoutForeverTCP: on a TCPEnv, whose queue timer fires at once
// for a negative d, RecvTimeout(-1) still waits for a message sent late.
func TestRecvTimeoutForeverTCP(t *testing.T) {
	w := tcpWorld(2)
	w.Launch(func(c *Comm) error {
		if c.Rank() == 1 {
			time.Sleep(50 * time.Millisecond)
			return c.Send(0, 9, []byte("late"))
		}
		m, ok, err := c.RecvTimeout(1, 9, -1)
		if err == nil && (!ok || string(m.Data) != "late") {
			err = fmt.Errorf("RecvTimeout(-1) = %q, %v; want the late message", m.Data, ok)
		}
		return err
	})
	w.Wait()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRankErrs: per-rank outcomes are exposed in rank order.
func TestRankErrs(t *testing.T) {
	k, w := simWorld(t, 3)
	w.Launch(func(c *Comm) error {
		if c.Rank() == 1 {
			return ErrInvalidTag // stand-in application error
		}
		return nil
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	errs := w.RankErrs()
	if len(errs) != 3 || errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("RankErrs = %v", errs)
	}
}

// TestRecvTimeoutUnderLinkFlap exercises the failure-detection primitive on
// a flapping link: while the receiver's link is down, RecvTimeout returns
// ok=false on schedule (virtual time keeps flowing); once the flap's up
// phase restores service, in-flight messages deliver and nothing is lost or
// reordered.
func TestRecvTimeoutUnderLinkFlap(t *testing.T) {
	k := sim.New()
	net := simnet.New(k)
	net.AddRouter("sw", "")
	pls := make([]Placement, 2)
	for i := range pls {
		name := fmt.Sprintf("node%d", i)
		net.AddHost(name, simnet.HostConfig{})
		net.Connect(name, "sw", simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: 12 << 20})
		pls[i] = Placement{Name: name, Spawn: net.Node(name).SpawnOn}
	}
	w := NewWorld(pls)
	// node0's link is down 60ms of every 100ms, from 10ms to 510ms: any
	// send landing in a down phase stalls on the wire until the next up.
	if err := net.ApplyPlan((&simnet.FaultPlan{}).
		LinkFlap("node0", "sw", 100*time.Millisecond, 0.6, 10*time.Millisecond, 510*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var timeouts, deliveries int
	var order []string
	w.Launch(func(c *Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < 5; i++ {
				if err := c.Send(0, 7, []byte(fmt.Sprintf("m%d", i))); err != nil {
					return err
				}
				c.Env().Sleep(100 * time.Millisecond)
			}
			return nil
		}
		deadline := c.Env().Now() + 2*time.Second
		for deliveries < 5 && c.Env().Now() < deadline {
			m, ok, err := c.RecvTimeout(1, 7, 30*time.Millisecond)
			if err != nil {
				return err
			}
			if !ok {
				timeouts++
				continue
			}
			deliveries++
			order = append(order, string(m.Data))
		}
		return nil
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if deliveries != 5 {
		t.Fatalf("delivered %d of 5 messages across the flap", deliveries)
	}
	if timeouts == 0 {
		t.Error("no RecvTimeout expirations during the down phases")
	}
	for i, m := range order {
		if want := fmt.Sprintf("m%d", i); m != want {
			t.Fatalf("order[%d] = %q, want %q (stream reordered)", i, m, want)
		}
	}
}
