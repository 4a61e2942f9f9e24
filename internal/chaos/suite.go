package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/cluster"
	"nxcluster/internal/hbm"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/rmf"
	"nxcluster/internal/simnet"
)

// Invariant is one end-of-run assertion over a chaos Report. Check returns
// nil when the invariant holds and a descriptive error when it does not.
type Invariant struct {
	Name  string
	Check func(*Report) error
}

// Scenario is one declarative chaos experiment: a Config (topology options,
// fault schedule, workload knobs), the invariants its report must satisfy,
// and optionally a Baseline config whose report the primary is Compared
// against (for "mitigation beats no-mitigation" claims).
//
// Every scenario is additionally run twice and the two runs must agree on the
// full observability trace hash and on a report fingerprint — fault injection
// must never cost reproducibility.
type Scenario struct {
	Name string
	// Desc is a one-line statement of what the scenario demonstrates.
	Desc string
	// Config is the faulted run under test.
	Config Config
	// Baseline, when non-nil, is a second run (typically the same faults
	// without the mitigation) handed to Compare.
	Baseline *Config
	// Invariants are checked against the primary run's report.
	Invariants []Invariant
	// Compare, when set (requires Baseline), cross-checks the two reports —
	// e.g. speculation must beat the no-speculation baseline on elapsed
	// virtual time while both keep the exact optimum.
	Compare func(rep, base *Report) error
}

// ScenarioResult is the outcome of one scenario, JSON-serializable for the
// committed CHAOS_suite.json baseline benchdiff gates on.
type ScenarioResult struct {
	Name       string   `json:"name"`
	Passed     bool     `json:"passed"`
	Invariants int      `json:"invariants"`
	Failures   []string `json:"failures,omitempty"`
	// TraceHash is the FNV-64a hash of the run's full observability trace,
	// identical across the double run (hex).
	TraceHash string `json:"trace_hash"`
	// Elapsed is the knapsack search's elapsed virtual time; JobDoneMS is
	// when the RMF job's Wait returned (0 if no control plane).
	ElapsedMS int64 `json:"elapsed_ms"`
	JobDoneMS int64 `json:"job_done_ms"`

	// Report and BaseReport carry the full run outcomes for tests and
	// logging; they are not part of the JSON baseline.
	Report     *Report `json:"-"`
	BaseReport *Report `json:"-"`
	// Obs is the primary run's observer — the causal trace SLO evaluation
	// reads. Not part of the JSON baseline.
	Obs *obs.Observer `json:"-"`
}

// SuiteResult aggregates a whole suite run.
type SuiteResult struct {
	Scenarios []ScenarioResult `json:"scenarios"`
}

// Passed reports whether every scenario passed.
func (r *SuiteResult) Passed() bool {
	for _, s := range r.Scenarios {
		if !s.Passed {
			return false
		}
	}
	return true
}

// Counts returns the scenario count, the total invariants checked (including
// the implicit determinism check and any baseline Compare), and the total
// failures.
func (r *SuiteResult) Counts() (scenarios, invariants, failures int) {
	for _, s := range r.Scenarios {
		scenarios++
		invariants += s.Invariants
		failures += len(s.Failures)
	}
	return
}

// fingerprint reduces a report to a canonical string so double runs can be
// compared field by field (map iteration order excluded).
func fingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v best=%d elapsed=%v traversed=%d orphans=%d",
		rep.Completed, rep.Best, rep.Elapsed, rep.TotalTraversed, rep.Orphans)
	fmt.Fprintf(&b, " reg=%d boots=%d suspectperiods=%d",
		rep.InnerRegistrations, rep.OuterBoots, rep.InnerStats.SuspectPeriods)
	fmt.Fprintf(&b, " joberr=%v requeues=%d spec=%d res=%s done=%v",
		rep.JobErr, rep.JobRequeues, rep.JobSpeculations, rep.JobResource, rep.JobDone)
	fmt.Fprintf(&b, " suspects=%d downs=%d extrajobs=%d", rep.HBMSuspects, rep.HBMDowns, rep.ExtraJobsDone)
	names := make([]string, 0, len(rep.HBM))
	for n := range rep.HBM {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, " hbm.%s=%v", n, rep.HBM[n])
	}
	return b.String()
}

// RunScenario executes one scenario: the faulted config twice (determinism
// check) and the baseline once if present, then every invariant. The runs
// are independent — each builds its own kernel, testbed and observer — so
// they go through bench.RunParallel and share the host's cores; with
// GOMAXPROCS=1 they run one after another in the order primary, replay,
// baseline. Harness errors (a config the runner rejects) come back as the
// error, the primary's first; invariant violations and determinism breaks
// are recorded as failures in the result.
func RunScenario(s Scenario) (*ScenarioResult, error) {
	const primary, replay, baseline = 0, 1, 2
	labels := [...]string{primary: "", replay: " (replay)", baseline: " (baseline)"}
	cfgs := []Config{primary: s.Config, replay: s.Config}
	if s.Baseline != nil {
		cfgs = append(cfgs, *s.Baseline)
	}
	type outcome struct {
		rep  *Report
		obs  *obs.Observer
		hash uint64
	}
	runs := make([]outcome, len(cfgs))
	err := bench.RunParallel(len(cfgs), 0, func(i int) error {
		cfg := cfgs[i]
		o := obs.New()
		cfg.Options.Obs = o
		rep, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("chaos %s%s: %w", s.Name, labels[i], err)
		}
		runs[i].rep = rep
		if i != baseline {
			// Only the double run's traces are compared, and each is hashed
			// here, on the run's own core, not after the join.
			runs[i].obs, runs[i].hash = o, o.Hash()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep, h1, h2 := runs[primary].rep, runs[primary].hash, runs[replay].hash
	res := &ScenarioResult{
		Name:      s.Name,
		TraceHash: fmt.Sprintf("%016x", h1),
		ElapsedMS: rep.Elapsed.Milliseconds(),
		JobDoneMS: rep.JobDone.Milliseconds(),
		Report:    rep,
		Obs:       runs[primary].obs,
	}
	// The determinism invariant is implicit on every scenario: identical
	// trace hash and identical report fingerprint across the double run.
	res.Invariants++
	if h1 != h2 {
		res.Failures = append(res.Failures, traceDivergence(runs[primary].obs, runs[replay].obs, h1, h2))
	} else if f1, f2 := fingerprint(rep), fingerprint(runs[replay].rep); f1 != f2 {
		res.Failures = append(res.Failures, fmt.Sprintf("determinism: reports diverge: %q vs %q", f1, f2))
	}
	for _, inv := range s.Invariants {
		res.Invariants++
		if err := inv.Check(rep); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", inv.Name, err))
		}
	}
	if s.Baseline != nil {
		res.BaseReport = runs[baseline].rep
		if s.Compare != nil {
			res.Invariants++
			if err := s.Compare(rep, res.BaseReport); err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("baseline-compare: %v", err))
			}
		}
	}
	res.Passed = len(res.Failures) == 0
	return res, nil
}

// traceDivergence words the determinism failure for a double run whose
// trace hashes differ: both hashes, then the first event the two traces
// disagree on, as the JSONL line of each side.
func traceDivergence(a, b *obs.Observer, ha, hb uint64) string {
	n, la, lb := obs.FirstDiff(a, b)
	return fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs; first divergence at event %d: %s | %s",
		ha, hb, n, la, lb)
}

// RunSuite executes every scenario, logging one line per scenario through
// logf (nil for silent).
func RunSuite(scenarios []Scenario, logf func(format string, args ...interface{})) (*SuiteResult, error) {
	out := &SuiteResult{}
	for _, s := range scenarios {
		res, err := RunScenario(s)
		if err != nil {
			return nil, err
		}
		out.Scenarios = append(out.Scenarios, *res)
		if logf != nil {
			status := "PASS"
			if !res.Passed {
				status = "FAIL"
			}
			logf("%-26s %s  invariants=%d elapsed=%dms job=%dms trace=%s",
				s.Name, status, res.Invariants, res.ElapsedMS, res.JobDoneMS, res.TraceHash)
			for _, f := range res.Failures {
				logf("    FAIL %s", f)
			}
		}
	}
	return out, nil
}

// --- Invariant library ---

// ExactOptimum demands the search completed with the bit-exact sequential
// optimum — the invariant the whole exercise hangs on.
func ExactOptimum() Invariant {
	return Invariant{Name: "exact-optimum", Check: func(r *Report) error {
		if !r.Completed {
			return fmt.Errorf("search did not complete before the horizon")
		}
		if r.Best != r.WantBest {
			return fmt.Errorf("best = %d, want %d", r.Best, r.WantBest)
		}
		return nil
	}}
}

// AllWorkDone demands no tree node was lost: reclaimed batches may be
// re-expanded (work grows), but the traversal can never undercount.
func AllWorkDone() Invariant {
	return Invariant{Name: "all-work-done", Check: func(r *Report) error {
		if r.TotalTraversed < r.WantNodes {
			return fmt.Errorf("traversed %d < %d: work was lost", r.TotalTraversed, r.WantNodes)
		}
		return nil
	}}
}

// NoOrphans demands no slave gave up with ErrOrphaned (the master survived).
func NoOrphans() Invariant {
	return Invariant{Name: "no-orphans", Check: func(r *Report) error {
		if r.Orphans != 0 {
			return fmt.Errorf("%d orphaned slaves", r.Orphans)
		}
		return nil
	}}
}

// NoRankErrors demands every rank's error slot is nil (killed ranks stay nil).
func NoRankErrors() Invariant {
	return Invariant{Name: "no-rank-errors", Check: func(r *Report) error {
		for i, e := range r.RankErrs {
			if e != nil {
				return fmt.Errorf("rank %d: %v", i, e)
			}
		}
		return nil
	}}
}

// Registrations bounds the inner relay's registration-session count:
// exactly 1 on a healthy or merely degraded boundary, >= 2 after a flap that
// outlives the keepalive timeout.
func Registrations(min, max int) Invariant {
	return Invariant{Name: "registrations", Check: func(r *Report) error {
		if r.InnerRegistrations < min || (max > 0 && r.InnerRegistrations > max) {
			return fmt.Errorf("registrations = %d, want [%d,%d]", r.InnerRegistrations, min, max)
		}
		return nil
	}}
}

// SuspectPeriods demands the inner relay rode out at least min keepalive
// misses as SUSPECT instead of tearing the session down.
func SuspectPeriods(min int) Invariant {
	return Invariant{Name: "suspect-periods", Check: func(r *Report) error {
		if r.InnerStats.SuspectPeriods < min {
			return fmt.Errorf("suspect periods = %d, want >= %d", r.InnerStats.SuspectPeriods, min)
		}
		return nil
	}}
}

// JobCompleted demands the RMF job's Wait returned cleanly on some resource.
func JobCompleted() Invariant {
	return Invariant{Name: "job-completed", Check: func(r *Report) error {
		if r.JobErr != nil {
			return fmt.Errorf("job error: %v", r.JobErr)
		}
		if r.JobResource == "" {
			return fmt.Errorf("job never ran")
		}
		return nil
	}}
}

// JobOffHost demands the job did NOT finish on the named (crashed or
// straggling) host.
func JobOffHost(host string) Invariant {
	return Invariant{Name: "job-off-" + host, Check: func(r *Report) error {
		if r.JobResource == host {
			return fmt.Errorf("job finished on %s", host)
		}
		return nil
	}}
}

// MinRequeues demands RMF requeued the job at least min times.
func MinRequeues(min int) Invariant {
	return Invariant{Name: "min-requeues", Check: func(r *Report) error {
		if r.JobRequeues < min {
			return fmt.Errorf("requeues = %d, want >= %d", r.JobRequeues, min)
		}
		return nil
	}}
}

// MaxRequeues bounds requeues from above (speculation scenarios promote the
// copy instead of requeueing).
func MaxRequeues(max int) Invariant {
	return Invariant{Name: "max-requeues", Check: func(r *Report) error {
		if r.JobRequeues > max {
			return fmt.Errorf("requeues = %d, want <= %d", r.JobRequeues, max)
		}
		return nil
	}}
}

// MinSpeculations demands at least min speculative copies launched.
func MinSpeculations(min int) Invariant {
	return Invariant{Name: "min-speculations", Check: func(r *Report) error {
		if r.JobSpeculations < min {
			return fmt.Errorf("speculations = %d, want >= %d", r.JobSpeculations, min)
		}
		return nil
	}}
}

// ElapsedCeiling demands the search finished within d of virtual time —
// recovery may slow the run but must not let it crawl.
func ElapsedCeiling(d time.Duration) Invariant {
	return Invariant{Name: "elapsed-ceiling", Check: func(r *Report) error {
		if r.Elapsed > d {
			return fmt.Errorf("elapsed %v > ceiling %v", r.Elapsed, d)
		}
		return nil
	}}
}

// HBMAllUp demands every monitored process is UP at the horizon (restarted
// hosts rebooted their reporters; degraded hosts were restored).
func HBMAllUp() Invariant {
	return Invariant{Name: "hbm-all-up", Check: func(r *Report) error {
		for name, h := range r.HBM {
			if h != hbm.Up {
				return fmt.Errorf("HBM %s = %v at horizon, want Up", name, h)
			}
		}
		return nil
	}}
}

// HBMSuspectsSeen demands the monitor classified at least min transitions
// into SUSPECT — the gray-failure signal.
func HBMSuspectsSeen(min int64) Invariant {
	return Invariant{Name: "hbm-suspects", Check: func(r *Report) error {
		if r.HBMSuspects < min {
			return fmt.Errorf("suspect transitions = %d, want >= %d", r.HBMSuspects, min)
		}
		return nil
	}}
}

// ExtraJobsDone demands at least min flash-crowd jobs (Config.ExtraJobs)
// completed cleanly before the horizon.
func ExtraJobsDone(min int) Invariant {
	return Invariant{Name: "extra-jobs-done", Check: func(r *Report) error {
		if r.ExtraJobsDone < min {
			return fmt.Errorf("extra jobs done = %d, want >= %d", r.ExtraJobsDone, min)
		}
		return nil
	}}
}

// HBMNoDowns demands the monitor never flapped a slow-but-alive host through
// DOWN — the point of the SUSPECT state.
func HBMNoDowns() Invariant {
	return Invariant{Name: "hbm-no-downs", Check: func(r *Report) error {
		if r.HBMDowns != 0 {
			return fmt.Errorf("down transitions = %d, want 0", r.HBMDowns)
		}
		return nil
	}}
}

// --- Default suite ---

// suiteBase is the Table-4 wide-area run every suite scenario starts from.
func suiteBase() Config {
	return baseSuiteConfig(0)
}

func baseSuiteConfig(missBudget int) Config {
	return Config{
		Items:    24,
		Capacity: 3,
		System:   cluster.SystemWide,
		UseProxy: true,
		// The suite runs with slave liveness heartbeats on and a steal budget
		// (20 x 500ms) sized for gray failures: delayed replies must not
		// exhaust a slave's patience before the master's per-slave reclaim
		// (SlaveTimeout past the last heartbeat) can unstick a dead host's
		// outstanding batch.
		FT: knapsack.FTParams{
			Params: knapsack.Params{
				Interval:  4,
				StealUnit: 4,
				NodeCost:  8 * time.Millisecond,
			},
			SlaveTimeout:   2500 * time.Millisecond,
			StealTimeout:   500 * time.Millisecond,
			StealRetries:   20,
			HeartbeatEvery: time.Second,
		},
		Horizon: 90 * time.Second,
		Keepalive: proxy.KeepaliveConfig{
			Interval:   200 * time.Millisecond,
			Timeout:    400 * time.Millisecond,
			MissBudget: missBudget,
		},
		ControlPlane: true,
	}
}

// DefaultSuite is the scenario library: every gray-failure mode the fault
// model can express, each paired with the mitigation that answers it.
func DefaultSuite() []Scenario {
	return []Scenario{
		partitionThenHeal(),
		flappingBoundary(),
		slowNodeStraggler(),
		suspectStraggler(),
		degradedBoundary(),
		asymmetricWAN(),
		rollingSiteOutage(),
		crashDuringSpeculation(),
	}
}

// partitionThenHeal severs every link between the RWCP side and the ETL side
// for 2s mid-search. The cut is shorter than the steal budget, so the search
// rides it out: exact optimum, no orphans, and — because the firewall
// boundary link is inside the RWCP group — a single registration session.
func partitionThenHeal() Scenario {
	cfg := suiteBase()
	p := &simnet.FaultPlan{}
	p.Partition(cluster.RWCPSideNodes(), cluster.ETLSideNodes(), 2*time.Second, 4*time.Second)
	cfg.Plan = p
	return Scenario{
		Name:   "partition-then-heal",
		Desc:   "2s full site partition heals before the steal budget expires",
		Config: cfg,
		Invariants: []Invariant{
			ExactOptimum(), AllWorkDone(), NoOrphans(), NoRankErrors(),
			Registrations(1, 1), JobCompleted(), HBMAllUp(), ElapsedCeiling(60 * time.Second),
		},
	}
}

// flappingBoundary flaps the firewall boundary link with down windows longer
// than the keepalive timeout: the registration session must break and
// re-establish at least once, while the search still converges exactly.
func flappingBoundary() Scenario {
	cfg := suiteBase()
	p := &simnet.FaultPlan{}
	p.LinkFlap("rwcp-gw", cluster.RWCPOuter, 1500*time.Millisecond, 0.4, 2*time.Second, 6500*time.Millisecond)
	cfg.Plan = p
	return Scenario{
		Name:   "flapping-boundary",
		Desc:   "boundary link flaps past the keepalive timeout; relay re-registers",
		Config: cfg,
		Invariants: []Invariant{
			ExactOptimum(), AllWorkDone(), NoOrphans(), NoRankErrors(),
			Registrations(2, 0), JobCompleted(), HBMAllUp(), ElapsedCeiling(60 * time.Second),
		},
	}
}

// slowNodeStraggler slows the job's host by 4x and lets the progress
// deadline launch a speculative copy on a healthy node. The Baseline runs
// the identical fault without speculation; Compare demands the copy won on
// elapsed virtual time while both runs kept the exact optimum.
func slowNodeStraggler() Scenario {
	cfg := suiteBase()
	cfg.JobCompute = true
	cfg.Recovery = &rmf.RecoveryPolicy{StatusRetries: 3, SpeculateAfter: 2 * time.Second}
	p := &simnet.FaultPlan{}
	p.SlowHost("compas00", 4, 400*time.Millisecond, 60*time.Second)
	cfg.Plan = p

	base := cfg
	base.Recovery = &rmf.RecoveryPolicy{StatusRetries: 3}
	basePlan := &simnet.FaultPlan{}
	basePlan.SlowHost("compas00", 4, 400*time.Millisecond, 60*time.Second)
	base.Plan = basePlan

	return Scenario{
		Name:     "slow-node-straggler",
		Desc:     "4x straggler; speculation beats the no-speculation baseline",
		Config:   cfg,
		Baseline: &base,
		Invariants: []Invariant{
			ExactOptimum(), AllWorkDone(), JobCompleted(), ElapsedCeiling(60 * time.Second),
			MinSpeculations(1), MaxRequeues(0), JobOffHost("compas00"),
		},
		Compare: func(rep, base *Report) error {
			if base.JobErr != nil {
				return fmt.Errorf("baseline job error: %v", base.JobErr)
			}
			if rep.JobDone >= base.JobDone {
				return fmt.Errorf("speculation did not win: job done at %v, baseline %v", rep.JobDone, base.JobDone)
			}
			if rep.Best != rep.WantBest || base.Best != base.WantBest {
				return fmt.Errorf("optimum drifted: spec %d base %d want %d", rep.Best, base.Best, rep.WantBest)
			}
			return nil
		},
	}
}

// suspectStraggler slows one COMPaS node hard enough that its heartbeat
// gaps cross the DOWN threshold, with a SuspectWindow configured: the
// monitor must classify it SUSPECT — never DOWN — and clear it after the
// host is restored.
func suspectStraggler() Scenario {
	cfg := suiteBase()
	cfg.SuspectWindow = 5 * time.Second
	cfg.BeatCost = 100 * time.Millisecond
	cfg.HBMLateAfter = 600 * time.Millisecond
	cfg.HBMDownAfter = 1200 * time.Millisecond
	p := &simnet.FaultPlan{}
	p.SlowHost("compas07", 6, 1*time.Second, 50*time.Second)
	cfg.Plan = p
	return Scenario{
		Name:   "suspect-straggler",
		Desc:   "6x straggler classified SUSPECT, not DOWN/UP flapping",
		Config: cfg,
		Invariants: []Invariant{
			ExactOptimum(), AllWorkDone(), JobCompleted(), ElapsedCeiling(60 * time.Second),
			HBMSuspectsSeen(1), HBMNoDowns(), HBMAllUp(),
		},
	}
}

// degradedBoundary adds 300ms each way on the firewall boundary link —
// enough that every pong misses the keepalive timeout — with a MissBudget
// that rides the delay out as SUSPECT. The Baseline has no budget and must
// flap through at least one re-registration.
func degradedBoundary() Scenario {
	cfg := baseSuiteConfig(2)
	p := &simnet.FaultPlan{}
	p.LinkDegrade("rwcp-gw", cluster.RWCPOuter, 300*time.Millisecond, 0, 1*time.Second, 6*time.Second)
	p.LinkDegrade(cluster.RWCPOuter, "rwcp-gw", 300*time.Millisecond, 0, 1*time.Second, 6*time.Second)
	cfg.Plan = p

	base := baseSuiteConfig(0)
	basePlan := &simnet.FaultPlan{}
	basePlan.LinkDegrade("rwcp-gw", cluster.RWCPOuter, 300*time.Millisecond, 0, 1*time.Second, 6*time.Second)
	basePlan.LinkDegrade(cluster.RWCPOuter, "rwcp-gw", 300*time.Millisecond, 0, 1*time.Second, 6*time.Second)
	base.Plan = basePlan

	return Scenario{
		Name:     "degraded-boundary",
		Desc:     "slow boundary link ridden out as SUSPECT under a miss budget",
		Config:   cfg,
		Baseline: &base,
		Invariants: []Invariant{
			ExactOptimum(), AllWorkDone(), JobCompleted(), ElapsedCeiling(75 * time.Second),
			Registrations(1, 1), SuspectPeriods(1),
		},
		Compare: func(rep, base *Report) error {
			if base.InnerRegistrations < 2 {
				return fmt.Errorf("baseline without a miss budget re-registered %d times, want >= 2 (the budget should be what prevents the flap)", base.InnerRegistrations)
			}
			return nil
		},
	}
}

// asymmetricWAN degrades only one direction of the WAN link: steal replies
// crawl while requests fly. The search slows but must stay exact, and the
// boundary session (unaffected) must stay up.
func asymmetricWAN() Scenario {
	cfg := suiteBase()
	p := &simnet.FaultPlan{}
	p.LinkDegrade(cluster.RWCPOuter, "etl-gw", 250*time.Millisecond, 0, 1*time.Second, 8*time.Second)
	cfg.Plan = p
	return Scenario{
		Name:   "asymmetric-wan",
		Desc:   "one-way 250ms WAN degradation; search exact, no session flap",
		Config: cfg,
		Invariants: []Invariant{
			ExactOptimum(), AllWorkDone(), NoOrphans(), NoRankErrors(),
			Registrations(1, 1), JobCompleted(), HBMAllUp(), ElapsedCeiling(60 * time.Second),
		},
	}
}

// rollingSiteOutage crashes three COMPaS nodes in staggered windows; the job
// chases the failures across the site and the FT scheduler reclaims each
// dead rank's work.
func rollingSiteOutage() Scenario {
	cfg := suiteBase()
	p := &simnet.FaultPlan{}
	p.CrashWindow("compas00", 1*time.Second, 3*time.Second)
	p.CrashWindow("compas01", 3500*time.Millisecond, 5500*time.Millisecond)
	p.CrashWindow("compas02", 6*time.Second, 8*time.Second)
	cfg.Plan = p
	return Scenario{
		Name:   "rolling-site-outage",
		Desc:   "three staggered node crashes; job requeued ahead of each",
		Config: cfg,
		Invariants: []Invariant{
			ExactOptimum(), AllWorkDone(), NoOrphans(), NoRankErrors(),
			JobCompleted(), MinRequeues(1), HBMAllUp(), ElapsedCeiling(60 * time.Second),
		},
	}
}

// crashDuringSpeculation crashes the straggler while its speculative copy is
// in flight: the copy must be promoted (no requeue) and the job completes
// off the dead node.
func crashDuringSpeculation() Scenario {
	cfg := suiteBase()
	cfg.JobCompute = true
	// The crashed host's reclaimed batch is re-expanded while the other
	// slaves starve; give them patience to ride the re-expansion out.
	cfg.FT.StealRetries = 40
	cfg.Recovery = &rmf.RecoveryPolicy{StatusRetries: 3, SpeculateAfter: 2 * time.Second}
	p := &simnet.FaultPlan{}
	p.SlowHost("compas00", 4, 400*time.Millisecond, 60*time.Second)
	p.CrashWindow("compas00", 4*time.Second, 8*time.Second)
	cfg.Plan = p
	return Scenario{
		Name:   "crash-during-speculation",
		Desc:   "straggler crashes mid-speculation; the copy is promoted",
		Config: cfg,
		Invariants: []Invariant{
			ExactOptimum(), AllWorkDone(), NoOrphans(), JobCompleted(), ElapsedCeiling(60 * time.Second),
			MinSpeculations(1), MaxRequeues(0), JobOffHost("compas00"),
		},
	}
}
