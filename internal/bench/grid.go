package bench

import (
	"fmt"
	"hash/fnv"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
	"nxcluster/internal/simnet"
)

// GridConfig parameterizes one wide-grid knapsack run: the Table 4 wide-area
// system extended with Options.ExtraSites extra grid sites.
type GridConfig struct {
	// Items and Capacity size the knapsack instance (defaults 50 and 3).
	Items    int
	Capacity int
	// Params are the self-scheduler knobs (zero value = tuned defaults).
	Params knapsack.Params
	// Options are the testbed options.
	Options cluster.Options
	// UseProxy routes RWCP-site ranks through the Nexus Proxy relays.
	UseProxy bool
	// Plan, when non-nil, is applied to the testbed before the run.
	Plan *simnet.FaultPlan
}

func (c GridConfig) withDefaults() GridConfig {
	if c.Items <= 0 {
		c.Items = 50
	}
	if c.Capacity <= 0 {
		c.Capacity = 3
	}
	if c.Params.Interval == 0 && c.Params.StealUnit == 0 {
		c.Params = knapsack.DefaultParams()
	}
	return c
}

// GridResult is one wide-grid run's outcome: the virtual-time results the
// determinism checks compare.
type GridResult struct {
	// Elapsed is the solve's virtual execution time.
	Elapsed time.Duration
	// Best and Traversed are the knapsack optimum and total node count.
	Best      int64
	Traversed int64
	// TraceHash is the FNV-64a hash of the kernel's event interleaving.
	TraceHash uint64
}

// RunGridKnapsack executes one wide-grid knapsack solve.
func RunGridKnapsack(cfg GridConfig) (*GridResult, error) {
	cfg = cfg.withDefaults()
	tb := cluster.NewTestbed(cfg.Options)
	defer tb.Shutdown()

	h := fnv.New64a()
	tb.K.Trace = func(at time.Duration, format string, args ...interface{}) {
		fmt.Fprintf(h, "%d ", at)
		fmt.Fprintf(h, format, args...)
		h.Write([]byte{'\n'})
	}
	if cfg.Plan != nil {
		if err := tb.ApplyPlan(cfg.Plan); err != nil {
			return nil, err
		}
	}

	in := knapsack.Normalized(cfg.Items, cfg.Capacity)
	w := mpi.NewWorld(tb.GridPlacements(cfg.UseProxy))
	var res *knapsack.Result
	w.Launch(func(c *mpi.Comm) error {
		r, err := knapsack.Run(c, in, cfg.Params)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			res = r
		}
		return nil
	})
	if err := tb.Run(); err != nil {
		return nil, err
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	if res == nil {
		return nil, fmt.Errorf("bench: grid run: no result from master")
	}
	return &GridResult{
		Elapsed:   res.Elapsed,
		Best:      res.Best,
		Traversed: res.TotalTraversed,
		TraceHash: h.Sum64(),
	}, nil
}
