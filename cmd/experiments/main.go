// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated testbed.
//
//	experiments                      # everything
//	experiments -run table2          # one experiment
//	experiments -run table4 -capacity 5
//
// Valid -run values: table2, table3, table4, table5, table6, figure1,
// figure2, figure3, figure4, figure5, sweep (bandwidth vs message size),
// decomp (per-hop latency decomposition of the Table 2 points), ktrace
// (wide-area knapsack run with tracing and a metrics snapshot), monitor
// (wide-area knapsack run with the live monitoring plane), gridftp
// (parallel-stream bulk transfers through the proxy over a congestion-
// modeled WAN), fleet (open-loop fleet-scale run: -fleet-sites x
// -fleet-hosts hosts absorbing -fleet-jobs heavy-tailed jobs at ~0.85
// utilization, reporting jobs/sec, events/sec and p50/p99 job latency from
// sampled causal traces), all.
//
// Tracing (decomp and ktrace only; runs stay deterministic in virtual time):
//
//	experiments -run decomp -trace decomp.jsonl
//	experiments -run ktrace -trace-chrome knap.json   # chrome://tracing, Perfetto
//
// Monitoring (per-interval time-series, ASCII dashboard, GIS host table):
//
//	experiments -run monitor
//	experiments -run monitor -monitor-html report.html -monitor-jsonl ts.jsonl
//
// Profiling the simulator itself (any -run value):
//
//	experiments -run table4 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// A negative count, an unknown -run, or an output flag the chosen -run does
// not write is refused before anything runs (exit 2); a failed experiment
// exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/fleet"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed flags plus what the sections share.
type options struct {
	run                               string
	items, capacity, rounds, workers  int
	traceOut, traceChrome             string
	monitorInterval                   time.Duration
	monitorHTML, monitorJSONL         string
	monitorAll                        bool
	fleetSites, fleetHosts, fleetJobs int
	fleetSeed                         uint64
	cpuprofile, memprofile            string

	stdout, stderr io.Writer
	knap           *bench.KnapsackReport // the Tables 4-6 sweep, run once
}

// writers names, per output flag, the -run values that write it.
var writers = map[string][]string{
	"trace":         {"decomp", "ktrace"},
	"trace-chrome":  {"ktrace"},
	"monitor-html":  {"monitor"},
	"monitor-jsonl": {"monitor"},
}

// section is one experiment; -run all runs those marked all.
type section struct {
	name   string
	all    bool
	render func(o *options) (string, error)
}

// sections are the experiments in print order.
var sections = []section{
	{"figure1", true, func(*options) (string, error) { return bench.Figure1() }},
	{"figure2", true, func(*options) (string, error) { return bench.Figure2() }},
	{"figure3", true, func(*options) (string, error) { return bench.Figure3() }},
	{"figure4", true, func(*options) (string, error) { return bench.Figure4() }},
	{"figure5", true, func(*options) (string, error) { return bench.Figure5() }},
	{"sweep", true, func(o *options) (string, error) {
		sweeps, err := bench.RunBandwidthSweep(bench.Table2Config{Rounds: o.rounds, Workers: o.workers})
		if err != nil {
			return "", err
		}
		return bench.FormatSweep(sweeps), nil
	}},
	{"table2", true, func(o *options) (string, error) {
		rows, err := bench.RunTable2(bench.Table2Config{Rounds: o.rounds, Workers: o.workers})
		if err != nil {
			return "", err
		}
		return bench.FormatTable2(rows), nil
	}},
	{"table3", true, func(*options) (string, error) { return bench.FormatTable3(), nil }},
	{"decomp", false, (*options).decomp},
	{"gridftp", false, (*options).gridftp},
	{"ktrace", false, (*options).ktrace},
	{"monitor", false, (*options).monitor},
	{"fleet", false, (*options).fleet},
	{"table4", true, func(o *options) (string, error) { return o.table(bench.FormatTable4) }},
	{"table5", true, func(o *options) (string, error) { return o.table(bench.FormatTable5) }},
	{"table6", true, func(o *options) (string, error) { return o.table(bench.FormatTable6) }},
}

// run is main minus the process exit, so tests can drive it.
// Exit codes: 0 ok, 1 experiment failure, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	o := &options{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.run, "run", "all", "experiment to run")
	fs.IntVar(&o.items, "items", 50, "knapsack items (paper: 50)")
	fs.IntVar(&o.capacity, "capacity", 4, "knapsack capacity; controls tree size (4 = ~2.6M nodes, 5 = ~20.6M)")
	fs.IntVar(&o.rounds, "rounds", 4, "rounds per Table 2 measurement")
	fs.IntVar(&o.workers, "workers", 0, "host threads for independent simulations (0 = GOMAXPROCS, 1 = sequential); virtual-time results are identical either way")
	fs.StringVar(&o.traceOut, "trace", "", "write the run's event trace as JSONL (decomp, ktrace)")
	fs.StringVar(&o.traceChrome, "trace-chrome", "", "write the run's event trace in Chrome trace_event format (ktrace)")
	fs.DurationVar(&o.monitorInterval, "monitor-interval", time.Second, "virtual-time sampling window for -run monitor")
	fs.StringVar(&o.monitorHTML, "monitor-html", "", "write the monitor run's HTML/SVG report to this file")
	fs.StringVar(&o.monitorJSONL, "monitor-jsonl", "", "write the monitor run's time-series as JSONL to this file")
	fs.BoolVar(&o.monitorAll, "monitor-all", false, "show every series on the dashboard, not just the wide-area headline set")
	fs.IntVar(&o.fleetSites, "fleet-sites", 32, "sites in the -run fleet topology")
	fs.IntVar(&o.fleetHosts, "fleet-hosts", 32, "hosts per site in the -run fleet topology")
	fs.IntVar(&o.fleetJobs, "fleet-jobs", 100_000, "open-loop jobs for -run fleet")
	fs.Uint64Var(&o.fleetSeed, "fleet-seed", 1, "arrival/size RNG seed for -run fleet")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := o.check(fs); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	if err := o.execute(); err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 1
	}
	return 0
}

// check refuses, before anything runs, an unknown -run, a negative count and
// an output flag the chosen -run does not write.
func (o *options) check(fs *flag.FlagSet) error {
	if o.run != "all" && !slices.ContainsFunc(sections, func(s section) bool { return s.name == o.run }) {
		return fmt.Errorf("unknown -run %q", o.run)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if n, ok := f.Value.(flag.Getter).Get().(int); ok && n < 0 && err == nil {
			err = fmt.Errorf("-%s %d: must not be negative", f.Name, n)
		}
		if runs, ok := writers[f.Name]; ok && !slices.Contains(runs, o.run) && err == nil {
			err = fmt.Errorf("-%s is written by -run %s, not -run %s", f.Name, strings.Join(runs, " or "), o.run)
		}
	})
	return err
}

// execute runs the chosen sections, under the requested profiles.
func (o *options) execute() (err error) {
	if o.cpuprofile != "" {
		// Named cerr, not err: the deferred close reports into the result.
		f, cerr := os.Create(o.cpuprofile)
		if cerr != nil {
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", cerr)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}
	if o.memprofile != "" {
		defer func() {
			runtime.GC()
			if werr := writeFile(o.memprofile, pprof.WriteHeapProfile); werr != nil && err == nil {
				err = fmt.Errorf("memprofile: %w", werr)
			}
		}()
	}
	for _, s := range sections {
		if o.run != s.name && !(s.all && o.run == "all") {
			continue
		}
		out, err := s.render(o)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(o.stdout, out)
	}
	return nil
}

// writeFile creates path and fills it with write; an empty path writes
// nothing.
func writeFile(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// table renders one of Tables 4-6 from the knapsack sweep, running it first
// if no earlier table has.
func (o *options) table(format func(*bench.KnapsackReport) string) (string, error) {
	if o.knap == nil {
		start := time.Now()
		r, err := bench.RunKnapsack(bench.KnapsackConfig{Items: o.items, Capacity: o.capacity, Workers: o.workers})
		if err != nil {
			return "", fmt.Errorf("knapsack sweep: %w", err)
		}
		fmt.Fprintf(o.stderr, "[knapsack sweep: %d items, capacity %d, %d nodes/run, host time %v]\n",
			o.items, o.capacity, knapsack.NormalizedTreeNodes(o.items, o.capacity), time.Since(start).Round(time.Millisecond))
		o.knap = r
	}
	return format(o.knap), nil
}

func (o *options) decomp() (string, error) {
	ds, err := bench.RunDecomposition(bench.Table2Config{Workers: o.workers})
	if err != nil {
		return "", err
	}
	// Concatenated JSONL, one section per point; each point's timestamps
	// restart at its own kernel's zero.
	return bench.FormatDecomposition(ds), writeFile(o.traceOut, func(w io.Writer) error {
		for _, d := range ds {
			if err := d.Obs.WriteJSONL(w); err != nil {
				return err
			}
		}
		return nil
	})
}

func (o *options) gridftp() (string, error) {
	start := time.Now()
	pts, err := bench.RunTransfer(bench.TransferConfig{Workers: o.workers})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(o.stderr, "[gridftp sweep: %d points, host time %v]\n",
		len(pts), time.Since(start).Round(time.Millisecond))
	return bench.FormatTransfer(pts), nil
}

func (o *options) ktrace() (string, error) {
	tr := obs.New()
	res, err := bench.RunKnapsackTraced(bench.KnapsackConfig{Items: o.items, Capacity: o.capacity}, tr)
	if err != nil {
		return "", err
	}
	if err := writeFile(o.traceOut, tr.WriteJSONL); err != nil {
		return "", err
	}
	if err := writeFile(o.traceChrome, tr.WriteChromeTrace); err != nil {
		return "", err
	}
	return fmt.Sprintf("wide-area knapsack (traced): best %d, %d nodes, %s virtual time, %d trace events\n%s",
		res.Best, res.TotalTraversed, res.Elapsed, tr.Len(), tr.Metrics().Format()), nil
}

func (o *options) monitor() (string, error) {
	start := time.Now()
	rep, err := bench.RunMonitor(bench.MonitorConfig{
		KnapsackConfig: bench.KnapsackConfig{Items: o.items, Capacity: o.capacity, Workers: o.workers},
		Interval:       o.monitorInterval,
	}, nil)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(o.stderr, "[monitored run: %d windows, %d series, host time %v]\n",
		rep.Store.Windows(), rep.Store.Len(), time.Since(start).Round(time.Millisecond))
	filter := bench.DefaultMonitorFilter
	if o.monitorAll {
		filter = nil
	}
	if err := writeFile(o.monitorJSONL, rep.Store.WriteJSONL); err != nil {
		return "", err
	}
	return bench.FormatMonitor(rep, filter), writeFile(o.monitorHTML, func(w io.Writer) error {
		title := fmt.Sprintf("Wide-area monitored run: %d items, capacity %d", o.items, o.capacity)
		return rep.Store.WriteHTML(w, title, bench.MonitorHTMLOptions(o.monitorAll))
	})
}

func (o *options) fleet() (string, error) {
	sizes := fleet.SizeDist{Kind: fleet.DistPareto, Alpha: 1.5, Min: time.Second, Max: 5 * time.Minute}
	// Open-loop rate sized to ~0.85 fleet utilization: slots over the
	// distribution's analytic mean service time.
	slots := float64(o.fleetSites) * float64(o.fleetHosts) * 2
	rate := 0.85 * slots / sizes.MeanDuration().Seconds()
	start := time.Now()
	rep, err := bench.RunFleet(fleet.Config{
		Sites:        o.fleetSites,
		HostsPerSite: o.fleetHosts,
		Jobs:         o.fleetJobs,
		Seed:         o.fleetSeed,
		Arrivals:     fleet.RateShape{Kind: fleet.RateConstant, Rate: rate},
		Sizes:        sizes,
		Heartbeat:    30 * time.Second,
		TraceSample:  100,
	})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(o.stderr, "[fleet run: %d sites x %d hosts, %d jobs, host time %v]\n",
		o.fleetSites, o.fleetHosts, o.fleetJobs, time.Since(start).Round(time.Millisecond))
	return bench.FormatFleet(rep), nil
}
