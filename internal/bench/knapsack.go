package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
)

// KnapsackConfig parameterizes the Tables 4-6 experiment.
type KnapsackConfig struct {
	// Items is the problem size; like the paper we default to 50 items.
	Items int
	// Capacity bounds the knapsack in unit weights and thereby the tree
	// size (see knapsack.Normalized). The default 4 traverses ~2.6 million
	// nodes so a full five-system sweep finishes in seconds of host time;
	// 5 gives ~20.6 million and 6 ~136 million for longer, closer-to-paper
	// runs (the paper traverses billions).
	Capacity int
	// Params are the self-scheduler knobs (zero value = tuned defaults).
	Params knapsack.Params
	// Options are testbed options.
	Options cluster.Options
	// Workers bounds the sweep's host-side parallelism: each of the six
	// runs (baseline + five systems) executes on its own kernel, so they
	// can run on separate host threads without affecting virtual-time
	// results. 0 selects GOMAXPROCS; 1 runs them sequentially.
	Workers int
}

func (c KnapsackConfig) withDefaults() KnapsackConfig {
	if c.Items <= 0 {
		c.Items = 50
	}
	if c.Capacity <= 0 {
		c.Capacity = 4
	}
	if c.Params.Interval == 0 && c.Params.StealUnit == 0 {
		c.Params = knapsack.DefaultParams()
	}
	return c
}

// Table4Row is one system's execution time and speedup.
type Table4Row struct {
	// System is the paper's system name.
	System string
	// Processors in the system.
	Processors int
	// Exec is the virtual execution time.
	Exec time.Duration
	// Speedup relative to the sequential RWCP-Sun baseline.
	Speedup float64
	// Result carries the run's full statistics (nil for the baseline).
	Result *knapsack.Result
}

// KnapsackReport aggregates everything Tables 4, 5 and 6 need.
type KnapsackReport struct {
	// Config echoes the experiment parameters.
	Config KnapsackConfig
	// SeqTime is the sequential baseline on RWCP-Sun.
	SeqTime time.Duration
	// SeqTraversed is the baseline's node count.
	SeqTraversed int64
	// Rows holds one entry per Table 4 line, in the paper's order.
	Rows []Table4Row
	// Local and Wide keep the instrumented runs Tables 5/6 derive from.
	Local *knapsack.Result
	Wide  *knapsack.Result
}

// ProxyOverhead returns the relative execution-time overhead of the proxy on
// the wide-area cluster (the paper measures ~3.5%).
func (r *KnapsackReport) ProxyOverhead() float64 {
	var with, without time.Duration
	for _, row := range r.Rows {
		switch row.System {
		case "Wide-area Cluster (use Nexus Proxy)":
			with = row.Exec
		case "Wide-area Cluster (not use Nexus Proxy)":
			without = row.Exec
		}
	}
	if with == 0 || without == 0 {
		return 0
	}
	return float64(with-without) / float64(without)
}

// RunKnapsack executes the complete Table 4 sweep: sequential baseline, the
// four Table 3 systems, and the wide-area system again without the proxy
// (for which the firewall is temporarily opened, as in the paper).
func RunKnapsack(cfg KnapsackConfig) (*KnapsackReport, error) {
	cfg = cfg.withDefaults()
	in := knapsack.Normalized(cfg.Items, cfg.Capacity)
	wantNodes := knapsack.NormalizedTreeNodes(cfg.Items, cfg.Capacity)
	wantBest := bestOf(in, cfg.Capacity)
	report := &KnapsackReport{Config: cfg}

	type entry struct {
		name     string
		system   cluster.System
		useProxy bool
		openFW   bool
	}
	entries := []entry{
		{"COMPaS", cluster.SystemCompas, false, false},
		{"ETL-O2K", cluster.SystemETLO2K, false, false},
		{"Local-area Cluster", cluster.SystemLocal, true, false},
		{"Wide-area Cluster (use Nexus Proxy)", cluster.SystemWide, true, false},
		{"Wide-area Cluster (not use Nexus Proxy)", cluster.SystemWide, false, true},
	}

	// All six runs (the sequential baseline at slot 0, the Table 3 systems
	// after it) are independent simulations on private kernels; fan them out
	// across host threads and aggregate by slot for deterministic ordering.
	results := make([]*knapsack.Result, len(entries)+1)
	err := RunParallel(len(entries)+1, cfg.Workers, func(i int) error {
		if i == 0 {
			// Sequential baseline on RWCP-Sun: a single-rank parallel run
			// degenerates to the pure solver loop.
			res, err := runOn(cfg, in, func(tb *cluster.Testbed) []mpi.Placement {
				return tb.SequentialPlacement()
			}, false)
			if err != nil {
				return fmt.Errorf("bench: sequential baseline: %w", err)
			}
			results[0] = res
			return nil
		}
		e := entries[i-1]
		c := cfg
		c.Options.OpenFirewall = c.Options.OpenFirewall || e.openFW
		res, err := runOn(c, in, func(tb *cluster.Testbed) []mpi.Placement {
			return tb.Placements(e.system, e.useProxy)
		}, e.useProxy)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", e.name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	report.SeqTime = results[0].Elapsed
	report.SeqTraversed = results[0].TotalTraversed

	for i, e := range entries {
		res := results[i+1]
		if res.Best != wantBest {
			return nil, fmt.Errorf("bench: %s found %d, want %d", e.name, res.Best, wantBest)
		}
		if res.TotalTraversed != wantNodes {
			return nil, fmt.Errorf("bench: %s traversed %d nodes, want %d",
				e.name, res.TotalTraversed, wantNodes)
		}
		row := Table4Row{
			System:     e.name,
			Processors: e.system.Processors(),
			Exec:       res.Elapsed,
			Speedup:    float64(report.SeqTime) / float64(res.Elapsed),
			Result:     res,
		}
		report.Rows = append(report.Rows, row)
		switch e.name {
		case "Local-area Cluster":
			report.Local = res
		case "Wide-area Cluster (use Nexus Proxy)":
			report.Wide = res
		}
	}
	return report, nil
}

// bestOf computes the optimum of a unit-weight instance: the top `cap`
// profits.
func bestOf(in *knapsack.Instance, cap int) int64 {
	profits := make([]int64, 0, len(in.Items))
	for _, it := range in.Items {
		profits = append(profits, it.Profit)
	}
	sort.Slice(profits, func(i, j int) bool { return profits[i] > profits[j] })
	var s int64
	for i := 0; i < cap && i < len(profits); i++ {
		s += profits[i]
	}
	return s
}

// runOn executes one knapsack run on a fresh testbed.
func runOn(cfg KnapsackConfig, in *knapsack.Instance, place func(*cluster.Testbed) []mpi.Placement, proxied bool) (*knapsack.Result, error) {
	tb := cluster.NewTestbed(cfg.Options)
	defer tb.Shutdown()
	w := mpi.NewWorld(place(tb))
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
		return nil, fmt.Errorf("no result from master")
	}
	return res, nil
}

// clusterOf maps a rank's host name to its paper cluster label.
func clusterOf(host string) string {
	switch {
	case strings.HasPrefix(host, "compas"):
		return "COMPaS"
	case host == cluster.ETLO2K:
		return "ETL-O2K"
	case host == cluster.ETLSun:
		return "ETL-Sun"
	case strings.HasPrefix(host, "grid"):
		// grid3-o2k -> GRID3
		return strings.ToUpper(strings.SplitN(host, "-", 2)[0])
	default:
		return "RWCP-Sun"
	}
}

// GroupStat is a per-cluster max/min/average triple, as Tables 5 and 6
// report.
type GroupStat struct {
	Cluster string
	Max     int64
	Min     int64
	Avg     float64
	Count   int
}

// groupStats aggregates a per-rank metric by cluster, excluding the master
// (rank 0), which the paper reports separately.
func groupStats(res *knapsack.Result, metric func(knapsack.RankStats) int64) []GroupStat {
	byCluster := make(map[string]*GroupStat)
	for _, st := range res.Stats[1:] {
		cl := clusterOf(st.Name)
		g := byCluster[cl]
		if g == nil {
			g = &GroupStat{Cluster: cl, Min: 1<<63 - 1}
			byCluster[cl] = g
		}
		v := metric(st)
		if v > g.Max {
			g.Max = v
		}
		if v < g.Min {
			g.Min = v
		}
		g.Avg += float64(v)
		g.Count++
	}
	var out []GroupStat
	for _, g := range byCluster {
		g.Avg /= float64(g.Count)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cluster < out[j].Cluster })
	return out
}

// FormatTable3 prints the testbed descriptions.
func FormatTable3() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 3. Experimental Testbed")
	for _, s := range []cluster.System{cluster.SystemCompas, cluster.SystemETLO2K, cluster.SystemLocal, cluster.SystemWide} {
		fmt.Fprintf(&b, "%-20s %s\n", s.String(), s.Describe())
	}
	return b.String()
}

// FormatTable4 renders the execution time / speedup table.
func FormatTable4(r *KnapsackReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4. Execution time for the 0-1 knapsack problem (%d items, capacity %d, %d nodes)\n",
		r.Config.Items, r.Config.Capacity, knapsack.NormalizedTreeNodes(r.Config.Items, r.Config.Capacity))
	fmt.Fprintf(&b, "%-42s %6s %18s %9s\n", "System", "procs", "execution time", "speedup")
	fmt.Fprintf(&b, "%-42s %6d %18s %9s\n", "RWCP-Sun (sequential baseline)", 1, fmtSeconds(r.SeqTime), "1.00")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-42s %6d %18s %9.2f\n", row.System, row.Processors, fmtSeconds(row.Exec), row.Speedup)
	}
	fmt.Fprintf(&b, "proxy overhead on wide-area cluster: %.1f%%\n", r.ProxyOverhead()*100)
	return b.String()
}

// FormatTable5 renders steal-request statistics for the local- and
// wide-area runs.
func FormatTable5(r *KnapsackReport) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 5. Number of steals")
	fmt.Fprintf(&b, "%-22s %10s  %s\n", "System", "Master", "per-cluster slave steals (max/min/avg)")
	for _, sys := range []struct {
		name string
		res  *knapsack.Result
	}{{"Local-area Cluster", r.Local}, {"Wide-area Cluster", r.Wide}} {
		if sys.res == nil {
			continue
		}
		fmt.Fprintf(&b, "%-22s %10d  ", sys.name, sys.res.MasterHandled)
		for _, g := range groupStats(sys.res, func(st knapsack.RankStats) int64 { return st.Steals }) {
			fmt.Fprintf(&b, "%s[%d/%d/%.1f] ", g.Cluster, g.Max, g.Min, g.Avg)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// FormatTable6 renders traversed-node statistics.
func FormatTable6(r *KnapsackReport) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 6. Number of traversed nodes")
	fmt.Fprintf(&b, "%-22s %12s  %s\n", "System", "Master", "per-cluster slave nodes (max/min/avg)")
	for _, sys := range []struct {
		name string
		res  *knapsack.Result
	}{{"Local-area Cluster", r.Local}, {"Wide-area Cluster", r.Wide}} {
		if sys.res == nil {
			continue
		}
		fmt.Fprintf(&b, "%-22s %12d  ", sys.name, sys.res.Stats[0].Traversed)
		for _, g := range groupStats(sys.res, func(st knapsack.RankStats) int64 { return st.Traversed }) {
			fmt.Fprintf(&b, "%s[%d/%d/%.0f] ", g.Cluster, g.Max, g.Min, g.Avg)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

func fmtSeconds(d time.Duration) string {
	return fmt.Sprintf("%.2f sec", d.Seconds())
}
