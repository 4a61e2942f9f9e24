// Command knapsack solves 0-1 knapsack instances with the branch-and-bound
// solver: sequentially on this machine, or in parallel on the simulated
// wide-area cluster testbed (the paper's Table 4 systems).
//
// Examples:
//
//	knapsack -items 50 -capacity 4                 # paper's normalized workload, sequential
//	knapsack -random -items 30 -seed 7 -prune      # random instance with bound pruning
//	knapsack -system wide -items 50 -capacity 4    # 20-processor simulated wide-area run
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
)

func main() {
	items := flag.Int("items", 50, "number of items")
	capacity := flag.Int("capacity", 4, "knapsack capacity for the normalized workload")
	random := flag.Bool("random", false, "use a random instance instead of the normalized one")
	seed := flag.Int64("seed", 1, "random instance seed")
	prune := flag.Bool("prune", false, "enable bound pruning")
	system := flag.String("system", "", "run on a simulated system: compas|etlo2k|local|wide (empty = sequential here)")
	noProxy := flag.Bool("no-proxy", false, "wide-area run without the Nexus Proxy (opens the firewall)")
	flag.Parse()

	var in *knapsack.Instance
	if *random {
		in = knapsack.Random(*items, 1000, *seed)
	} else {
		in = knapsack.Normalized(*items, *capacity)
	}
	if err := in.Validate(); err != nil {
		log.Fatalf("knapsack: %v", err)
	}

	if *system == "" {
		runSequential(in, *prune)
		return
	}
	runSimulated(in, *system, !*noProxy, *prune)
}

func runSequential(in *knapsack.Instance, prune bool) {
	start := time.Now()
	var best, traversed int64
	if prune {
		best, traversed = knapsack.Solve(in)
	} else {
		best, traversed = knapsack.SolveExhaustive(in)
	}
	fmt.Printf("best profit:     %d\n", best)
	fmt.Printf("nodes traversed: %d\n", traversed)
	fmt.Printf("wall time:       %v\n", time.Since(start))
}

func runSimulated(in *knapsack.Instance, system string, useProxy, prune bool) {
	var sys cluster.System
	switch system {
	case "compas":
		sys = cluster.SystemCompas
	case "etlo2k":
		sys = cluster.SystemETLO2K
	case "local":
		sys = cluster.SystemLocal
	case "wide":
		sys = cluster.SystemWide
	default:
		log.Fatalf("knapsack: unknown system %q", system)
	}
	tb := cluster.NewTestbed(cluster.Options{OpenFirewall: !useProxy})
	defer tb.K.Shutdown()
	params := knapsack.DefaultParams()
	params.PruneBound = prune
	w := mpi.NewWorld(tb.Placements(sys, useProxy))
	var res *knapsack.Result
	w.Launch(func(c *mpi.Comm) error {
		r, err := knapsack.Run(c, in, params)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	start := time.Now()
	if err := tb.K.Run(); err != nil {
		log.Fatalf("knapsack: simulation: %v", err)
	}
	if err := w.Err(); err != nil {
		log.Fatalf("knapsack: %v", err)
	}
	fmt.Printf("system:            %s (%d processors, proxy=%v)\n", sys, sys.Processors(), useProxy)
	fmt.Printf("best profit:       %d\n", res.Best)
	fmt.Printf("nodes traversed:   %d\n", res.TotalTraversed)
	fmt.Printf("virtual exec time: %.2f s\n", res.Elapsed.Seconds())
	fmt.Printf("steals handled:    %d\n", res.MasterHandled)
	fmt.Printf("host wall time:    %v\n", time.Since(start))
	for _, st := range res.Stats {
		fmt.Printf("  rank %2d %-10s traversed %10d  steals %5d  sentback %5d\n",
			st.Rank, st.Name, st.Traversed, st.Steals, st.SentBack)
	}
}
