package bench

import (
	"errors"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
	"nxcluster/internal/transport"
)

// TestKnapsackSurvivesWANOutage injects a WAN outage into the middle of a
// wide-area run: the IMnet link drops for 200 virtual seconds, stalling
// every RWCP<->ETL stream (steal requests, work batches), then comes back.
// The computation must complete with exactly the right totals — the
// reliable-stream layer stalls rather than corrupts — and the outage must
// cost wall-clock time.
func TestKnapsackSurvivesWANOutage(t *testing.T) {
	run := func(outage bool) *knapsack.Result {
		tb := cluster.NewTestbed(cluster.Options{})
		defer tb.K.Shutdown()
		in := knapsack.Normalized(50, 3)
		if outage {
			// Drop the IMnet at t=20s for 200s of virtual time.
			tb.K.After(20*time.Second, func() {
				if !tb.Net.SetLinkDown(cluster.RWCPOuter, "etl-gw") {
					t.Error("could not take IMnet down")
				}
			})
			tb.K.After(220*time.Second, func() {
				tb.Net.SetLinkUp(cluster.RWCPOuter, "etl-gw")
			})
		}
		w := mpi.NewWorld(tb.Placements(cluster.SystemWide, true))
		var res *knapsack.Result
		w.Launch(func(c *mpi.Comm) error {
			r, err := knapsack.Run(c, in, knapsack.DefaultParams())
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				res = r
			}
			return nil
		})
		if err := tb.K.Run(); err != nil {
			t.Fatal(err)
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	healthy := run(false)
	outage := run(true)
	want := knapsack.NormalizedTreeNodes(50, 3)
	if healthy.TotalTraversed != want || outage.TotalTraversed != want {
		t.Fatalf("work conservation broken: healthy=%d outage=%d want=%d",
			healthy.TotalTraversed, outage.TotalTraversed, want)
	}
	if healthy.Best != outage.Best {
		t.Fatalf("results diverge: %d vs %d", healthy.Best, outage.Best)
	}
	if outage.Elapsed <= healthy.Elapsed {
		t.Fatalf("outage run (%v) not slower than healthy run (%v)",
			outage.Elapsed, healthy.Elapsed)
	}
	// The outage costs at most roughly its duration plus recovery, not a
	// livelock: generous bound of outage length x3.
	if outage.Elapsed > healthy.Elapsed+600*time.Second {
		t.Fatalf("outage cost %v, implausibly large", outage.Elapsed-healthy.Elapsed)
	}
}

// TestGridDeniedRankErrorFirst: a grid solve without the proxy behind the
// closed firewall fails because a rank's dial is denied; the kernel's
// deadlock that follows is the symptom. The error names the denial first,
// and errors.Is reaches it.
func TestGridDeniedRankErrorFirst(t *testing.T) {
	_, err := RunGridKnapsack(GridConfig{Items: 8, Capacity: 2})
	if !errors.Is(err, transport.ErrFirewallDenied) {
		t.Fatalf("RunGridKnapsack without the proxy = %v, want a transport.ErrFirewallDenied", err)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "bench: grid run: rank ") || !strings.Contains(msg, "deadlock") {
		t.Errorf("error %q: want the rank's error first, then the kernel's deadlock", msg)
	}
}
