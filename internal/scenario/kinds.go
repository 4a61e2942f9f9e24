package scenario

import (
	"fmt"
	"strings"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/cluster"
	"nxcluster/internal/fleet"
	"nxcluster/internal/hbm"
	"nxcluster/internal/obs"
	"nxcluster/internal/rmf"
)

// A kind is everything the package knows about one scenario kind: the
// sections its file may carry, how its workload block decodes, the config its
// runner takes, one run, its assertions and baseline comparators, and the
// report a front end prints after its row. Adding a kind is one entry of
// kinds; nothing outside the table names one.
type kind struct {
	name Kind
	// faults: the kind takes a fault plan, which Validate applies to the
	// testbed the run would build.
	faults bool
	// observed: the kind runs with an observer attached, so its file may
	// declare an slo block and its replay may be traced (Traceable).
	observed bool
	// ownTestbed, for a kind that builds its own testbed, says what it
	// builds; its topology section must then be empty.
	ownTestbed string
	// decode fills the spec's config of the kind from the workload block.
	// Defaults that are not the zero value are set before the walk.
	decode func(w any, s *Spec) error
	// validate is what Validate demands of the kind beyond the shared shape.
	validate func(s *Spec) error
	// config is the runner's input, built from the spec at run time: the
	// decoded workload plus what no workload key states — the fault plan,
	// the testbed options, the sampler an slo block needs.
	config func(s *Spec) (any, error)
	// run runs config once, an observed kind's with o attached (its sampler
	// reads o's metrics). witness false (a baseline, whose report alone is
	// read) may skip the comparison strings.
	run func(cfg any, o *obs.Observer, witness bool) (outcome, error)
	// asserts are the kind's end-of-run assertions and compare its baseline
	// comparators, in the order error messages list them; a kind without
	// comparators takes no baseline.
	asserts []assertion
	compare []comparator
	// report renders what a run leaves (outcome.v), each table followed by a
	// blank line.
	report func(v any) string
}

// solved is what a knapsack kind's run leaves: its solves, each beside the
// instance's ground truth (a *bench.ChaosReport, *bench.KnapsackReport,
// *bench.MonitorReport or *bench.GridResult).
type solved interface{ Solves() []bench.Solve }

// eachSolve is a row every knapsack kind may carry: fn judges each solve of
// the run, and the first violation is named after its system in a sweep.
func eachSolve[A any](name string, fn func(s bench.Solve, a A) error) assertion {
	return on(name, func(r solved, a A) error {
		for _, s := range r.Solves() {
			switch err := fn(s, a); {
			case err == nil:
			case s.System != "":
				return fmt.Errorf("%s: %w", s.System, err)
			default:
				return err
			}
		}
		return nil
	})
}

var (
	// The bit-exact sequential optimum: the invariant the whole exercise
	// hangs on.
	exactOptimum = eachSolve("exact-optimum", func(s bench.Solve, _ none) error {
		if !s.Completed {
			return fmt.Errorf("best = <no result>, want %d: the search did not complete", s.WantBest)
		}
		return failIf(s.Best != s.WantBest, "best = %d, want %d", s.Best, s.WantBest)
	})
	// Reclaimed batches may be re-expanded (work grows), but the traversal
	// can never undercount.
	allWorkDone = eachSolve("all-work-done", func(s bench.Solve, _ none) error {
		return failIf(s.TotalTraversed < s.WantNodes, "traversed %d < %d: work was lost", s.TotalTraversed, s.WantNodes)
	})
	// Recovery may slow the search but must not let it crawl.
	elapsedCeiling = eachSolve("elapsed-ceiling", func(s bench.Solve, d time.Duration) error {
		return failIf(s.Elapsed > d, "elapsed %v > ceiling %v", s.Elapsed, d)
	})
)

// kinds lists every kind, in display order.
var kinds = []kind{
	{
		name:     KindChaos,
		faults:   true,
		observed: true,
		decode: func(w any, s *Spec) error {
			c := &bench.ChaosConfig{System: cluster.SystemWide, UseProxy: true}
			// A recovery block overrides the job's policy by being there.
			rec, hasRec := &rmf.RecoveryPolicy{}, false
			s.Chaos = c
			err := decode(w, "workload", table{
				{"items", &c.Items},
				{"capacity", &c.Capacity},
				{"system", func(name string) (err error) { c.System, err = systemOf(name); return }},
				{"use_proxy", &c.UseProxy},
				{"horizon", &c.Horizon},
				{"control_plane", &c.ControlPlane},
				{"job_runtime", &c.JobRuntime},
				{"job_compute", &c.JobCompute},
				{"extra_jobs", &c.ExtraJobs},
				{"suspect_window", &c.SuspectWindow},
				{"beat_cost", &c.BeatCost},
				{"hbm", table{
					{"late_after", &c.HBMLateAfter},
					{"down_after", &c.HBMDownAfter},
				}},
				{"ft", table{
					{"interval", &c.FT.Interval},
					{"steal_unit", &c.FT.StealUnit},
					{"node_cost", &c.FT.NodeCost},
					{"slave_timeout", &c.FT.SlaveTimeout},
					{"steal_timeout", &c.FT.StealTimeout},
					{"steal_retries", &c.FT.StealRetries},
					{"heartbeat_every", &c.FT.HeartbeatEvery},
				}},
				{"keepalive", table{
					{"interval", &c.Keepalive.Interval},
					{"timeout", &c.Keepalive.Timeout},
					{"miss_budget", &c.Keepalive.MissBudget},
				}},
				{"recovery", present{&hasRec, table{
					{"status_retries", &rec.StatusRetries},
					{"speculate_after", &rec.SpeculateAfter},
				}}},
			})
			if hasRec {
				c.Recovery = rec
			}
			return err
		},
		validate: func(s *Spec) error {
			if c := s.Chaos; c.Items <= 0 || c.Capacity <= 0 {
				return fmt.Errorf("scenario %s: workload needs items > 0 and capacity > 0 (got %d/%d)", s.Name, c.Items, c.Capacity)
			}
			return failIf(s.Chaos.Horizon <= 0, "scenario %s: workload.horizon required (how long the kernel runs)", s.Name)
		},
		config: func(s *Spec) (any, error) {
			plan, err := s.faultPlan()
			if err != nil {
				return nil, err
			}
			cfg := *s.Chaos
			cfg.Plan, cfg.Options = plan, s.Topology
			// An SLO block needs windowed series to judge, so it switches the
			// chaos sampler on (reads only — never perturbs virtual-time results).
			if s.SLO != nil {
				cfg.SampleInterval = s.SLO.Interval
				if cfg.SampleInterval <= 0 {
					cfg.SampleInterval = time.Second
				}
			}
			return cfg, nil
		},
		run: func(cfg any, o *obs.Observer, witness bool) (outcome, error) {
			c := cfg.(bench.ChaosConfig)
			c.Options.Obs = o
			rep, err := bench.RunChaos(c)
			if err != nil {
				return outcome{}, err
			}
			out := outcome{
				v:        rep,
				fp:       fmt.Sprintf("elapsed=%dms job=%dms", rep.Elapsed.Milliseconds(), rep.JobDone.Milliseconds()),
				elapsed:  rep.Elapsed,
				observer: o,
				store:    rep.Store,
				traced:   true,
			}
			if witness {
				out.full, out.hash = rep.Fingerprint(), o.Hash()
			}
			return out, nil
		},
		asserts: []assertion{
			exactOptimum,
			allWorkDone,
			// No slave gave up with ErrOrphaned: the master survived.
			on("no-orphans", func(r *bench.ChaosReport, _ none) error {
				return failIf(r.Orphans != 0, "%d orphaned slaves", r.Orphans)
			}),
			// Every rank's error slot is nil (killed ranks stay nil).
			on("no-rank-errors", func(r *bench.ChaosReport, _ none) error {
				for i, e := range r.RankErrs {
					if e != nil {
						return fmt.Errorf("rank %d: %v", i, e)
					}
				}
				return nil
			}),
			// The inner relay's registration sessions: exactly 1 on a healthy
			// or merely degraded boundary, >= 2 after a flap that outlives the
			// keepalive timeout. max 0 leaves the count unbounded above.
			on("registrations", func(r *bench.ChaosReport, b minMax) error {
				return failIf(r.InnerRegistrations < b.min || (b.max > 0 && r.InnerRegistrations > b.max),
					"registrations = %d, want [%d,%d]", r.InnerRegistrations, b.min, b.max)
			}),
			// The inner relay rode out keepalive misses as SUSPECT instead of
			// tearing the session down.
			on("suspect-periods", func(r *bench.ChaosReport, min int) error {
				return failIf(r.InnerStats.SuspectPeriods < min, "suspect periods = %d, want >= %d", r.InnerStats.SuspectPeriods, min)
			}),
			// The RMF job's Wait returned cleanly on some resource.
			on("job-completed", func(r *bench.ChaosReport, _ none) error {
				if r.JobErr != nil {
					return fmt.Errorf("job error: %v", r.JobErr)
				}
				return failIf(r.JobResource == "", "job never ran")
			}),
			// The job did not finish on the named (crashed or straggling) host.
			named("job-off-host", func(host string) string { return "job-off-" + host }, func(r *bench.ChaosReport, host string) error {
				return failIf(r.JobResource == host, "job finished on %s", host)
			}),
			on("min-requeues", func(r *bench.ChaosReport, min int) error {
				return failIf(r.JobRequeues < min, "requeues = %d, want >= %d", r.JobRequeues, min)
			}),
			// Speculation scenarios promote the copy instead of requeueing.
			on("max-requeues", func(r *bench.ChaosReport, max int) error {
				return failIf(r.JobRequeues > max, "requeues = %d, want <= %d", r.JobRequeues, max)
			}),
			on("min-speculations", func(r *bench.ChaosReport, min int) error {
				return failIf(r.JobSpeculations < min, "speculations = %d, want >= %d", r.JobSpeculations, min)
			}),
			elapsedCeiling,
			// Every monitored process is UP at the horizon: restarted hosts
			// rebooted their reporters, degraded hosts were restored.
			on("hbm-all-up", func(r *bench.ChaosReport, _ none) error {
				for name, h := range r.HBM {
					if h != hbm.Up {
						return fmt.Errorf("HBM %s = %v at horizon, want Up", name, h)
					}
				}
				return nil
			}),
			// Transitions into SUSPECT: the gray-failure signal.
			on("hbm-suspects", func(r *bench.ChaosReport, min int) error {
				return failIf(r.HBMSuspects < int64(min), "suspect transitions = %d, want >= %d", r.HBMSuspects, min)
			}),
			// The monitor never flapped a slow-but-alive host through DOWN —
			// the point of the SUSPECT state.
			on("hbm-no-downs", func(r *bench.ChaosReport, _ none) error {
				return failIf(r.HBMDowns != 0, "down transitions = %d, want 0", r.HBMDowns)
			}),
			// Flash-crowd jobs (workload.extra_jobs) completed cleanly before
			// the horizon.
			on("extra-jobs-done", func(r *bench.ChaosReport, min int) error {
				return failIf(r.ExtraJobsDone < min, "extra jobs done = %d, want >= %d", r.ExtraJobsDone, min)
			}),
		},
		compare: []comparator{
			// The mitigated run's job must finish strictly earlier than the
			// baseline's, with both keeping the exact optimum.
			versus("speculation-wins", func(rep, base *bench.ChaosReport) error {
				if base.JobErr != nil {
					return fmt.Errorf("baseline job error: %v", base.JobErr)
				}
				if rep.JobDone >= base.JobDone {
					return fmt.Errorf("speculation did not win: job done at %v, baseline %v", rep.JobDone, base.JobDone)
				}
				return failIf(rep.Best != rep.WantBest || base.Best != base.WantBest,
					"optimum drifted: spec %d base %d want %d", rep.Best, base.Best, rep.WantBest)
			}),
			// The baseline (without the mitigation) must have flapped through
			// at least one re-registration — proof the mitigation is
			// load-bearing.
			versus("baseline-reregisters", func(_, base *bench.ChaosReport) error {
				return failIf(base.InnerRegistrations < 2,
					"baseline without a miss budget re-registered %d times, want >= 2 (the budget should be what prevents the flap)", base.InnerRegistrations)
			}),
		},
		report: func(v any) string { return "    " + v.(*bench.ChaosReport).Fingerprint() + "\n" },
	},
	{
		name: KindTable2,
		decode: func(w any, s *Spec) error {
			c := &bench.Table2Config{}
			s.Table2 = c
			return decode(w, "workload", table{
				{"rounds", &c.Rounds},
				{"sizes", &c.Sizes},
				{"workers", &c.Workers},
			})
		},
		config: func(s *Spec) (any, error) {
			cfg := *s.Table2
			cfg.Options = s.Topology
			return cfg, nil
		},
		run: func(cfg any, _ *obs.Observer, _ bool) (outcome, error) {
			rows, err := bench.RunTable2(cfg.(bench.Table2Config))
			if err != nil {
				return outcome{}, err
			}
			var longest time.Duration
			for _, r := range rows {
				longest = max(longest, r.Latency)
			}
			return hashed(rows, fingerprintTable2(rows), longest), nil
		},
		asserts: []assertion{
			on("rows", func(rows []bench.Table2Row, n int) error {
				return failIf(len(rows) != n, "rows = %d, want %d", len(rows), n)
			}),
			// Every proxied measurement must cost more latency than its direct
			// counterpart on the same path — the paper's Table 2 headline.
			on("indirect-slower", func(rows []bench.Table2Row, _ none) error {
				direct := map[string]time.Duration{}
				for _, r := range rows {
					if !r.Indirect {
						direct[r.Path] = r.Latency
					}
				}
				for _, r := range rows {
					if !r.Indirect {
						continue
					}
					d, ok := direct[r.Path]
					if !ok {
						return fmt.Errorf("%s has no direct counterpart", r.Path)
					}
					if r.Latency <= d {
						return fmt.Errorf("%s: indirect latency %v <= direct %v", r.Path, r.Latency, d)
					}
				}
				return nil
			}),
		},
		report: func(v any) string { return bench.FormatTable2(v.([]bench.Table2Row)) + "\n" },
	},
	{
		name: KindTable4,
		decode: func(w any, s *Spec) error {
			c := &bench.KnapsackConfig{}
			s.Table4 = c
			return decode(w, "workload", table{
				{"items", &c.Items},
				{"capacity", &c.Capacity},
				{"workers", &c.Workers},
			})
		},
		config: func(s *Spec) (any, error) {
			cfg := *s.Table4
			cfg.Options = s.Topology
			return cfg, nil
		},
		run: func(cfg any, _ *obs.Observer, _ bool) (outcome, error) {
			rep, err := bench.RunKnapsack(cfg.(bench.KnapsackConfig))
			if err != nil {
				return outcome{}, err
			}
			return hashed(rep, fingerprintTable4(rep), rep.SeqTime), nil
		},
		asserts: []assertion{
			on("systems", func(rep *bench.KnapsackReport, n int) error {
				return failIf(len(rep.Rows) != n, "systems = %d, want %d", len(rep.Rows), n)
			}),
			on("proxy-overhead-max", func(rep *bench.KnapsackReport, f float64) error {
				ov := rep.ProxyOverhead()
				return failIf(ov > f, "proxy overhead %.4f > ceiling %.4f", ov, f)
			}),
			exactOptimum,
			on("speedup-positive", func(rep *bench.KnapsackReport, _ none) error {
				for _, row := range rep.Rows {
					if row.Speedup <= 0 {
						return fmt.Errorf("%s: speedup %.3f <= 0", row.System, row.Speedup)
					}
				}
				return nil
			}),
		},
		report: func(v any) string {
			rep := v.(*bench.KnapsackReport)
			return bench.FormatTable4(rep) + "\n" + bench.FormatTable5(rep) + "\n" + bench.FormatTable6(rep) + "\n"
		},
	},
	{
		name:     KindMonitor,
		observed: true,
		decode: func(w any, s *Spec) error {
			c := &bench.MonitorConfig{}
			s.Monitor = c
			return decode(w, "workload", table{
				{"items", &c.Items},
				{"capacity", &c.Capacity},
				{"interval", &c.Interval},
			})
		},
		validate: func(s *Spec) error {
			return failIf(s.SLO != nil && s.SLO.Interval != 0,
				"scenario %s: slo.interval is the chaos sampler window; monitor scenarios window on workload.interval", s.Name)
		},
		// A monitor run is one kernel: the sweep width is pinned to 1.
		config: func(s *Spec) (any, error) {
			cfg := *s.Monitor
			cfg.Options, cfg.Workers = s.Topology, 1
			return cfg, nil
		},
		run: func(cfg any, o *obs.Observer, _ bool) (outcome, error) {
			c := cfg.(bench.MonitorConfig)
			c.Options.Obs = o
			rep, err := bench.RunMonitor(c, nil)
			if err != nil {
				return outcome{}, err
			}
			// The double run also compares the runs' trace hashes: a replay that
			// records (RunReport) is proved to have kept the primary's trace.
			fp := fingerprintMonitor(rep)
			return outcome{v: rep, fp: fp, full: fmt.Sprintf("%s trace=%016x", fp, o.Hash()), hash: rep.Store.Hash(),
				elapsed: rep.Elapsed, observer: o, store: rep.Store}, nil
		},
		asserts: []assertion{
			on("min-windows", func(rep *bench.MonitorReport, n int) error {
				return failIf(rep.Store.Windows() < n, "windows = %d, want >= %d", rep.Store.Windows(), n)
			}),
			on("min-series", func(rep *bench.MonitorReport, n int) error {
				return failIf(rep.Store.Len() < n, "series = %d, want >= %d", rep.Store.Len(), n)
			}),
			exactOptimum,
		},
		report: func(v any) string {
			return bench.FormatMonitor(v.(*bench.MonitorReport), bench.DefaultMonitorFilter) + "\n"
		},
	},
	{
		name:       KindGridFTP,
		ownTestbed: "builds its own congestion-modeled testbed per point",
		decode: func(w any, s *Spec) error {
			c := &bench.TransferConfig{}
			s.GridFTP = c
			if err := decode(w, "workload", table{
				{"file_size", &c.FileSize},
				{"streams", &c.Streams},
				{"loss_rates", &c.LossRates},
				{"seed", &c.Seed},
				{"workers", &c.Workers},
			}); err != nil {
				return err
			}
			for _, l := range c.LossRates {
				if l < 0 || l > 1 {
					return fmt.Errorf("scenario: workload.loss_rates entry %v outside [0,1] — loss is a probability", l)
				}
			}
			return nil
		},
		config: func(s *Spec) (any, error) { return *s.GridFTP, nil },
		run: func(cfg any, _ *obs.Observer, _ bool) (outcome, error) {
			pts, err := bench.RunTransfer(cfg.(bench.TransferConfig))
			if err != nil {
				return outcome{}, err
			}
			var longest time.Duration
			for _, p := range pts {
				longest = max(longest, p.Elapsed)
			}
			return hashed(pts, fingerprintTransfer(pts), longest), nil
		},
		asserts: []assertion{
			on("points", func(pts []bench.TransferPoint, n int) error {
				return failIf(len(pts) != n, "points = %d, want %d", len(pts), n)
			}),
			// At the sweep's highest loss rate, the widest stream fan must beat
			// the single stream on goodput — GridFTP's raison d'être.
			on("parallel-streams-win", func(pts []bench.TransferPoint, _ none) error {
				var worst float64
				for _, p := range pts {
					if p.LossRate > worst {
						worst = p.LossRate
					}
				}
				var single, widest bench.TransferPoint
				for _, p := range pts {
					if p.LossRate != worst {
						continue
					}
					if p.Streams == 1 {
						single = p
					}
					if p.Streams > widest.Streams {
						widest = p
					}
				}
				if single.Streams != 1 || widest.Streams <= 1 {
					return fmt.Errorf("sweep needs streams 1 and > 1 at loss %.3f to compare", worst)
				}
				if widest.Goodput <= single.Goodput {
					return fmt.Errorf("at loss %.3f: %d streams %.0f B/s <= 1 stream %.0f B/s",
						worst, widest.Streams, widest.Goodput, single.Goodput)
				}
				return nil
			}),
		},
		report: func(v any) string { return bench.FormatTransfer(v.([]bench.TransferPoint)) + "\n" },
	},
	{
		name:   KindGrid,
		faults: true,
		decode: func(w any, s *Spec) error {
			c := &bench.GridConfig{}
			s.Grid = c
			return decode(w, "workload", table{
				{"items", &c.Items},
				{"capacity", &c.Capacity},
				{"use_proxy", &c.UseProxy},
			})
		},
		config: func(s *Spec) (any, error) {
			plan, err := s.faultPlan()
			if err != nil {
				return nil, err
			}
			cfg := *s.Grid
			cfg.Options, cfg.Plan = s.Topology, plan
			return cfg, nil
		},
		run: func(cfg any, _ *obs.Observer, _ bool) (outcome, error) {
			res, err := bench.RunGridKnapsack(cfg.(bench.GridConfig))
			if err != nil {
				return outcome{}, err
			}
			// The hash of the kernel hash, trailing space included: the grammar
			// the committed grid rows were written in.
			hash := fnvHash(fmt.Sprintf("%016x ", res.TraceHash))
			return outcome{v: res, fp: fingerprintGrid(res), hash: hash, elapsed: res.Elapsed}, nil
		},
		asserts: []assertion{exactOptimum, allWorkDone, elapsedCeiling},
		report:  func(v any) string { return "    " + fingerprintGrid(v.(*bench.GridResult)) + "\n" },
	},
	{
		name:       KindFleet,
		ownTestbed: "stamps its own sites x hosts tree from the workload block",
		decode: func(w any, s *Spec) error {
			c := &fleet.Config{Arrivals: fleet.RateShape{Kind: "constant"}, Sizes: fleet.SizeDist{Kind: "fixed"}}
			var hasArrivals, hasSizes bool
			s.Fleet = c
			if err := decode(w, "workload", table{
				{"sites", &c.Sites},
				{"hosts_per_site", &c.HostsPerSite},
				{"cpus_per_host", &c.CPUsPerHost},
				{"jobs", &c.Jobs},
				{"seed", &c.Seed},
				{"heartbeat", &c.Heartbeat},
				{"trace_sample", &c.TraceSample},
				{"arrivals", present{&hasArrivals, table{
					{"kind", &c.Arrivals.Kind},
					{"rate", &c.Arrivals.Rate},
					{"amplitude", &c.Arrivals.Amplitude},
					{"period", &c.Arrivals.Period},
					{"peak", &c.Arrivals.Peak},
					{"from", &c.Arrivals.From},
					{"to", &c.Arrivals.To},
				}}},
				{"sizes", present{&hasSizes, table{
					{"kind", &c.Sizes.Kind},
					{"mean", &c.Sizes.Mean},
					{"alpha", &c.Sizes.Alpha},
					{"min", &c.Sizes.Min},
					{"max", &c.Sizes.Max},
					{"mu", &c.Sizes.Mu},
					{"sigma", &c.Sizes.Sigma},
				}}},
			}); err != nil {
				return err
			}
			if !hasArrivals {
				return fmt.Errorf("scenario %s: workload.arrivals required (the open-loop rate process)", s.Name)
			}
			if !hasSizes {
				return fmt.Errorf("scenario %s: workload.sizes required (the job service-time distribution)", s.Name)
			}
			// Strict decode: a fleet block that parses but cannot run (unknown
			// distribution, rate <= 0, sites x hosts past the host cap) is a
			// parse error, not a deferred run failure.
			if err := c.Validate(); err != nil {
				return fmt.Errorf("scenario %s: workload: %w", s.Name, err)
			}
			return nil
		},
		config: func(s *Spec) (any, error) { return *s.Fleet, nil },
		run: func(cfg any, _ *obs.Observer, _ bool) (outcome, error) {
			rep, err := bench.RunFleet(cfg.(fleet.Config))
			if err != nil {
				return outcome{}, err
			}
			res := rep.Result
			// The engine's own FNV fingerprint is the trace hash: it folds in
			// event counts, latency percentiles, and per-site completions.
			return outcome{v: rep, fp: fingerprintFleet(res), hash: res.Fingerprint, elapsed: res.Makespan}, nil
		},
		asserts: []assertion{
			on("all-jobs-done", func(fr *bench.FleetReport, _ none) error {
				return failIf(fr.Result.Jobs != fr.Config.Jobs, "completed %d of %d jobs", fr.Result.Jobs, fr.Config.Jobs)
			}),
			on("p99-ceiling", func(fr *bench.FleetReport, d time.Duration) error {
				return failIf(fr.Result.P99Lat > d, "p99 latency %v > ceiling %v", fr.Result.P99Lat, d)
			}),
			on("max-queued", func(fr *bench.FleetReport, n int) error {
				return failIf(fr.Result.QueuedPeak > n, "gateway queue peaked at %d, ceiling %d", fr.Result.QueuedPeak, n)
			}),
			// Overload scenarios assert the queues actually filled — proof the
			// flash crowd exceeded capacity rather than being absorbed.
			on("min-queued", func(fr *bench.FleetReport, n int) error {
				return failIf(fr.Result.QueuedPeak < n, "gateway queue peaked at %d, want >= %d", fr.Result.QueuedPeak, n)
			}),
			on("min-events", func(fr *bench.FleetReport, n int) error {
				return failIf(fr.Result.Events < uint64(n), "kernel stamped %d events, want >= %d", fr.Result.Events, n)
			}),
			on("makespan-ceiling", func(fr *bench.FleetReport, d time.Duration) error {
				return failIf(fr.Result.Makespan > d, "makespan %v > ceiling %v", fr.Result.Makespan, d)
			}),
		},
		report: func(v any) string { return bench.FormatFleet(v.(*bench.FleetReport)) + "\n" },
	},
}

// kindOf is k's entry, nil for a name no entry carries.
func kindOf(k Kind) *kind {
	for i := range kinds {
		if kinds[i].name == k {
			return &kinds[i]
		}
	}
	return nil
}

// kindNames joins the names of the kinds keep lets through (every kind for
// nil) with sep: "chaos, table2, ..." or "chaos and grid".
func kindNames(sep string, keep func(*kind) bool) string {
	var names []string
	for i := range kinds {
		if keep == nil || keep(&kinds[i]) {
			names = append(names, string(kinds[i].name))
		}
	}
	return strings.Join(names, sep)
}

// Traceable reports whether a front end may record s's replay: only a kind
// that runs with an observer attached has a trace to keep. The error reads
// after the file's name ("<file> is kind ...").
func Traceable(s *Spec) error {
	if k := kindOf(s.Kind); k == nil || !k.observed {
		return fmt.Errorf("is kind %s; only %s runs are traced", s.Kind, kindNames(" and ", func(k *kind) bool { return k.observed }))
	}
	return nil
}

// hashed is the outcome of a stateless sweep, whose witness is the hash of
// its fingerprint.
func hashed(v any, fp string, elapsed time.Duration) outcome {
	return outcome{v: v, fp: fp, hash: fnvHash(fp), elapsed: elapsed}
}
