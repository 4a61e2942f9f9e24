package knapsack

import (
	"fmt"
	"testing"
	"time"

	"nxcluster/internal/mpi"
	"nxcluster/internal/transport"
)

// TestMessageAllocs pins what the self-scheduling protocol allocates per
// message on a simulated LAN: a steal, the work reply that serves it or a
// share-back. The world's set-up is taken out by difference (a bigger
// search against a smaller one, divided by the messages the bigger one
// adds). A message's one allocation is the frame payload its receiving rank
// keeps: the batch a serve or share-back takes, its encoding, its decoding
// and the receive path's Buffer and inbox record are all reused.
func TestMessageAllocs(t *testing.T) {
	p := Params{Interval: 20, StealUnit: 2, BackUnit: 2, NodeCost: time.Microsecond}
	run := func(n int) (allocs float64, msgs int64) {
		allocs = testing.AllocsPerRun(1, func() {
			res := runParallel(t, 4, NoPruning(n), p)
			msgs = res.MasterHandled
			for _, st := range res.Stats {
				msgs += st.Steals + st.SentBack/int64(p.BackUnit)
			}
		})
		return allocs, msgs
	}
	small, smallMsgs := run(12)
	big, bigMsgs := run(15)
	per := (big - small) / float64(bigMsgs-smallMsgs)
	t.Logf("%.2f allocations per message over %d messages", per, bigMsgs-smallMsgs)
	if per > 1.1 {
		t.Errorf("%.2f allocations per message, want <= 1.1", per)
	}
}

// TestRunTCPMatchesSim runs Run and RunFT on a three-rank world of
// goroutines on loopback TCP, where a rank's Nexus readers fill its inbox
// from their own goroutines, and checks the optimum and the nodes traversed
// against the same search on a simulated LAN.
func TestRunTCPMatchesSim(t *testing.T) {
	in := NoPruning(12)
	p := Params{Interval: 20, StealUnit: 2, BackUnit: 2, NodeCost: time.Microsecond}
	want := runParallel(t, 3, in, p)
	for _, ft := range []bool{false, true} {
		pls := make([]mpi.Placement, 3)
		for i := range pls {
			pls[i] = mpi.Placement{Name: fmt.Sprintf("local%d", i), Spawn: transport.NewTCPEnv("localhost").Spawn}
		}
		w := mpi.NewWorld(pls)
		var got *Result
		w.Launch(func(c *mpi.Comm) error {
			var r *Result
			var err error
			if ft {
				r, err = RunFT(c, in, FTParams{Params: p})
			} else {
				r, err = Run(c, in, p)
			}
			if c.Rank() == 0 {
				got = r
			}
			return err
		})
		w.Wait()
		if err := w.Err(); err != nil {
			t.Fatalf("ft=%v: %v", ft, err)
		}
		if got.Best != want.Best || got.TotalTraversed != want.TotalTraversed {
			t.Fatalf("ft=%v: best %d, %d nodes traversed; the simulated run found %d in %d",
				ft, got.Best, got.TotalTraversed, want.Best, want.TotalTraversed)
		}
	}
}
