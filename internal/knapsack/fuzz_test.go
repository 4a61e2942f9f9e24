package knapsack

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nxcluster/internal/mpi"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
)

// TestSchedulerParameterFuzz runs the parallel solver under randomized
// scheduler parameters, world sizes, topologies and instances, asserting
// the two invariants that must hold for every combination: exact work
// conservation (every node expanded exactly once) and optimality.
func TestSchedulerParameterFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		ranks := 2 + rng.Intn(6)
		params := Params{
			Interval:      1 + rng.Intn(200),
			StealUnit:     1 + rng.Intn(6),
			BackUnit:      1 + rng.Intn(6),
			BackThreshold: rng.Intn(3) - 1, // -1 disable, 0 auto, 1 aggressive
			MasterReserve: rng.Intn(3) - 1,
			ShareInterval: rng.Intn(3)*100 - 1, // -1 disable, or 99/199
			NodeCost:      time.Duration(rng.Intn(300)) * time.Microsecond,
		}
		var in *Instance
		var wantBest, wantNodes int64
		if rng.Intn(2) == 0 {
			n, cap := 10+rng.Intn(20), 2+rng.Intn(3)
			in = Normalized(n, cap)
			wantNodes = NormalizedTreeNodes(n, cap)
			wantBest, _ = SolveExhaustive(in)
		} else {
			in = Random(10+rng.Intn(6), 100, rng.Int63())
			wantBest, wantNodes = SolveExhaustive(in)
		}

		k := sim.New()
		net := simnet.New(k)
		net.AddRouter("sw", "")
		pls := make([]mpi.Placement, ranks)
		for i := range pls {
			name := fmt.Sprintf("n%d", i)
			net.AddHost(name, simnet.HostConfig{Speed: 0.5 + rng.Float64()*1.5})
			net.Connect(name, "sw", simnet.LinkConfig{
				Latency:   time.Duration(rng.Intn(5000)) * time.Microsecond,
				Bandwidth: 1 << 20,
			})
			pls[i] = mpi.Placement{Name: name, Spawn: net.Node(name).SpawnOn}
		}
		w := mpi.NewWorld(pls)
		var res *Result
		w.Launch(func(c *mpi.Comm) error {
			r, err := Run(c, in, params)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				res = r
			}
			return nil
		})
		if err := k.Run(); err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, params, err)
		}
		k.Shutdown()
		if err := w.Err(); err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, params, err)
		}
		if res.TotalTraversed != wantNodes {
			t.Fatalf("trial %d (%+v): traversed %d, want %d",
				trial, params, res.TotalTraversed, wantNodes)
		}
		if res.Best != wantBest {
			t.Fatalf("trial %d (%+v): best %d, want %d", trial, params, res.Best, wantBest)
		}
	}
}
