package bench

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/mds"
	"nxcluster/internal/mpi"
	"nxcluster/internal/obs"
	"nxcluster/internal/obs/timeseries"
)

// MonitorBase is the DN suffix the monitoring plane publishes under.
const MonitorBase = "ou=monitor, o=grid"

// MonitorConfig parameterizes the monitored wide-area run.
type MonitorConfig struct {
	KnapsackConfig
	// Interval is the sampling window width in virtual time (default 1s —
	// the capacity-4 wide-area run takes a few hundred virtual seconds).
	Interval time.Duration
	// TTL ages monitor entries out of the directory when not refreshed
	// (default 5 intervals).
	TTL time.Duration
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	c.KnapsackConfig = c.KnapsackConfig.withDefaults()
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.TTL <= 0 {
		c.TTL = 5 * c.Interval
	}
	return c
}

// MonitorReport is the outcome of a monitored run: the workload's result,
// the sampled time-series, and the GIS directory as the monitor left it.
type MonitorReport struct {
	Config MonitorConfig
	Solve
	Store *timeseries.Store
	Dir   *mds.Directory
	// Obs is the run's observer, whose metrics the sampler windowed:
	// Config.Options.Obs when the caller set one (the scenario DSL passes one
	// folding its SLO latency legs), else a hash-only observer
	// (obs.NewHashOnly) that stores no events.
	Obs *obs.Observer
}

// RunMonitor executes the wide-area (proxied) knapsack run with the full
// monitoring plane attached: an observer (MonitorReport.Obs) collects
// metrics from every layer, a kernel-scheduled sampler windows them into
// time-series, and each window publishes host and link status rows into an
// MDS directory the way the paper's GRAM reporters refreshed GIS. The
// publisher writes the directory directly — no simulated traffic — so the
// workload's virtual-time results are identical to an unmonitored run.
//
// onSample, when non-nil, runs after each window (in kernel context) with
// the live store and directory — tests use it to assert mid-run consistency.
func RunMonitor(cfg MonitorConfig, onSample func(at time.Duration, st *timeseries.Store, dir *mds.Directory)) (*MonitorReport, error) {
	cfg = cfg.withDefaults()
	kc := cfg.KnapsackConfig
	if kc.Options.Obs == nil {
		kc.Options.Obs = obs.NewHashOnly()
	}
	o := kc.Options.Obs
	dir := mds.NewDirectory()
	var s *timeseries.Sampler
	res, err := runOn(kc, func(tb *cluster.Testbed) []mpi.Placement {
		return tb.Placements(cluster.SystemWide, true)
	}, func(tb *cluster.Testbed) error {
		pub := mds.NewPublisher(dir, MonitorBase, cfg.TTL)
		s = timeseries.NewSampler(tb.K, cfg.Interval, o.Metrics())
		s.Probe("cluster.hosts_up", timeseries.KindGauge, func() int64 {
			var up int64
			for _, h := range tb.Net.HostStatuses() {
				if h.Up {
					up++
				}
			}
			return up
		})
		s.Probe("cluster.conns", timeseries.KindGauge, func() int64 {
			var c int64
			for _, h := range tb.Net.HostStatuses() {
				c += int64(h.Conns)
			}
			return c
		})
		s.OnSample(func(at time.Duration) {
			pub.Publish(at, statusRows(tb))
			if onSample != nil {
				onSample(at, s.Store(), dir)
			}
		})
		s.Start()
		return nil
	}, horizon{})
	if err != nil {
		return nil, fmt.Errorf("bench: monitored run: %w", err)
	}
	if err := res.exact("monitored run"); err != nil {
		return nil, err
	}
	return &MonitorReport{Config: cfg, Solve: *res, Store: s.Store(), Dir: dir, Obs: o}, nil
}

// statusRows snapshots the testbed into GIS-style rows: one per host
// (status, load as live process count, cpus) and one per active link
// direction (status, linkMbps capacity, cumulative bytes, queue depth).
func statusRows(tb *cluster.Testbed) []mds.StatusRow {
	hosts := tb.Net.HostStatuses()
	links := tb.Net.LinkStatuses()
	rows := make([]mds.StatusRow, 0, len(hosts)+len(links))
	for _, h := range hosts {
		status := "up"
		if !h.Up {
			status = "down"
		}
		rows = append(rows, mds.StatusRow{Name: h.Name, Attrs: map[string][]string{
			"objectclass": {"host"},
			"site":        {h.Site},
			"status":      {status},
			"load":        {strconv.Itoa(h.Procs)},
			"cpus":        {strconv.Itoa(h.CPUs)},
		}})
	}
	for _, l := range links {
		status := "up"
		if !l.Up {
			status = "down"
		}
		mbps := float64(l.Bandwidth) * 8 / 1e6
		rows = append(rows, mds.StatusRow{Name: "link:" + l.Label, Attrs: map[string][]string{
			"objectclass": {"link"},
			"status":      {status},
			"linkmbps":    {strconv.FormatFloat(mbps, 'f', 1, 64)},
			"bytes":       {strconv.FormatInt(l.Bytes, 10)},
			"queue":       {strconv.Itoa(l.Queue)},
		}})
	}
	return rows
}

// FormatMonitor renders the monitored run: a summary header, the final GIS
// host table, and the ASCII time-series dashboard. Filter, when non-nil,
// restricts the dashboard's series (the full registry has one series per
// link direction and per rank — ~100 rows at full width).
func FormatMonitor(r *MonitorReport, filter func(string) bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Monitored wide-area run: %d items, capacity %d, exec %s, best %d\n",
		r.Config.Items, r.Config.Capacity, fmtSeconds(r.Elapsed), r.Best)
	fmt.Fprintf(&b, "\nGIS directory (base %q) after final window:\n", MonitorBase)
	entries, _ := r.Dir.Search(MonitorBase, mds.Eq("objectclass", "host"))
	fmt.Fprintf(&b, "%-16s %-6s %-8s %-6s %-6s\n", "host", "site", "status", "load", "cpus")
	for _, e := range entries {
		fmt.Fprintf(&b, "%-16s %-6s %-8s %-6s %-6s\n",
			strings.TrimPrefix(strings.SplitN(e.DN, ",", 2)[0], "hn="),
			e.First("site"), e.First("status"), e.First("load"), e.First("cpus"))
	}
	fmt.Fprintf(&b, "\n%s", r.Store.FormatDashboard(timeseries.DashboardOptions{Filter: filter}))
	return b.String()
}

// DefaultMonitorFilter keeps the dashboard to the headline series: WAN and
// gateway links, relay activity, RMF lifecycle, and the cluster probes.
func DefaultMonitorFilter(name string) bool {
	switch {
	case strings.HasPrefix(name, "cluster."),
		strings.HasPrefix(name, "relay."),
		strings.HasPrefix(name, "rmf."),
		strings.HasPrefix(name, "hbm."):
		return true
	case strings.HasPrefix(name, "link."):
		// Only the wide-area legs; per-host LAN series would swamp the view.
		return strings.Contains(name, "etl-gw") || strings.Contains(name, "rwcp-gw")
	default:
		return false
	}
}
