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

// GridResult is one wide-grid run's outcome: the solve and the kernel's
// event interleaving the determinism checks compare.
type GridResult struct {
	Solve
	// TraceHash is the FNV-64a hash of the kernel's event interleaving.
	TraceHash uint64
}

// RunGridKnapsack executes one wide-grid knapsack solve.
func RunGridKnapsack(cfg GridConfig) (*GridResult, error) {
	cfg = cfg.withDefaults()
	h := fnv.New64a()
	kc := KnapsackConfig{Items: cfg.Items, Capacity: cfg.Capacity, Params: cfg.Params, Options: cfg.Options}
	s, err := runOn(kc, func(tb *cluster.Testbed) []mpi.Placement {
		return tb.GridPlacements(cfg.UseProxy)
	}, func(tb *cluster.Testbed) error {
		tb.K.Trace = func(at time.Duration, format string, args ...interface{}) {
			fmt.Fprintf(h, "%d ", at)
			fmt.Fprintf(h, format, args...)
			h.Write([]byte{'\n'})
		}
		if cfg.Plan != nil {
			return tb.ApplyPlan(cfg.Plan)
		}
		return nil
	}, horizon{})
	if err != nil {
		return nil, fmt.Errorf("bench: grid run: %w", err)
	}
	return &GridResult{Solve: *s, TraceHash: h.Sum64()}, nil
}
