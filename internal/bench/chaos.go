package bench

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/hbm"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
	"nxcluster/internal/obs/timeseries"
	"nxcluster/internal/proxy"
	"nxcluster/internal/rmf"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// HBMPort is where the heartbeat monitor listens on rwcp-inner.
const HBMPort = 7300

// ChaosConfig describes one chaos run.
type ChaosConfig struct {
	// Items and Capacity select the normalized knapsack instance
	// (the paper's Table 4 workload uses capacity 3).
	Items    int
	Capacity int
	// System picks the Table 3 configuration; UseProxy routes RWCP ranks
	// through the Nexus Proxy.
	System   cluster.System
	UseProxy bool
	// FT are the fault-tolerant scheduler's knobs (including Params).
	FT knapsack.FTParams
	// Plan is the fault schedule (nil for a fault-free baseline).
	Plan *simnet.FaultPlan
	// Horizon is how long the kernel runs. Control-plane daemons beat
	// forever, so the run always ends at the horizon; size it well past
	// the expected completion time.
	Horizon time.Duration
	// Keepalive tunes the inner server's registration channel.
	Keepalive proxy.KeepaliveConfig
	// ControlPlane additionally runs the HBM monitor, the RMF allocator
	// with an HBM watcher, a Q server plus heartbeat reporter on every
	// COMPaS node (rebooted by host restarts), and one RMF job with
	// recovery enabled.
	ControlPlane bool
	// JobRuntime is how long the RMF job's process runs (default 3s) —
	// long enough that a crash window can catch it mid-execution.
	JobRuntime time.Duration
	// JobCompute switches the RMF job from sleeping (wall-clock work,
	// unaffected by host speed) to computing (CPU work): on a host slowed by
	// FaultPlan.SlowHost the job stretches by the slow factor, which is what
	// makes speculative re-execution worth demonstrating.
	JobCompute bool
	// ExtraJobs submits that many additional RMF jobs in a staggered burst
	// shortly after the primary — a flash crowd against the site's 8
	// capacity-1 Q servers. The allocator queues the overflow and drains it
	// in waves; ChaosReport.ExtraJobsDone counts clean completions.
	ExtraJobs int
	// Recovery overrides the RMF job's recovery policy (nil = the default
	// {StatusRetries: 3}). Set SpeculateAfter here to enable straggler
	// speculation.
	Recovery *rmf.RecoveryPolicy
	// SuspectWindow, when nonzero, enables the HBM monitor's gray-failure
	// SUSPECT classification (see hbm.Monitor.SuspectWindow).
	SuspectWindow time.Duration
	// BeatCost charges each heartbeat reporter that much compute per beat,
	// so a slowed host's beats arrive with stretched gaps — the degradation
	// signal SUSPECT classification keys on.
	BeatCost time.Duration
	// HBMLateAfter/HBMDownAfter override the monitor's overdue thresholds
	// (zero = derived from the beat interval). Scenarios that stretch beat
	// gaps with BeatCost raise these so healthy hosts stay cleanly UP.
	HBMLateAfter time.Duration
	HBMDownAfter time.Duration
	// SampleInterval, when nonzero (and Options.Obs is set), attaches a
	// kernel-scheduled time-series sampler with that window width; the
	// windowed series land in ChaosReport.Store. Sampling only reads
	// metrics, so it never changes the run's virtual-time results. The
	// scenario DSL's slo: block switches this on to judge throughput floors
	// and error budgets.
	SampleInterval time.Duration
	// Options forwards testbed construction options.
	Options cluster.Options
}

// ChaosReport is the outcome of a chaos run: its solve (a master still
// searching at the horizon leaves it incomplete, a rank it killed a nil
// error) and what every recovery layer did.
type ChaosReport struct {
	Solve
	// InnerRegistrations counts registration sessions the inner relay
	// established (1 fault-free; +1 per recovery). OuterBoots counts outer
	// server boots (1 + restarts).
	InnerRegistrations int
	OuterBoots         int
	// OuterStats snapshots the outer relay's counters at the horizon.
	OuterStats proxy.Stats
	// HBM is the monitor's view of every registered process at the
	// horizon (control plane only).
	HBM map[string]hbm.Health
	// JobErr, JobRequeues, JobResource describe the RMF job: its Wait
	// outcome, how many times it was requeued, and where it finally ran.
	JobErr      error
	JobRequeues int
	JobResource string
	// JobDone is the virtual time the job's Wait returned (0 if it never
	// did); JobSpeculations counts speculative duplicates launched.
	JobDone         time.Duration
	JobSpeculations int
	// ExtraJobsDone counts flash-crowd jobs (ChaosConfig.ExtraJobs) whose
	// Wait returned cleanly before the horizon.
	ExtraJobsDone int
	// InnerStats snapshots the inner relay's counters at the horizon
	// (SuspectPeriods is the degraded-boundary evidence).
	InnerStats proxy.Stats
	// HBMSuspects/HBMDowns count the monitor's transitions into SUSPECT and
	// DOWN (control plane only): a straggler under a SuspectWindow should
	// show suspects without DOWN/UP churn.
	HBMSuspects int64
	HBMDowns    int64
	// Store holds the windowed time-series when ChaosConfig.SampleInterval
	// asked for sampling (nil otherwise).
	Store *timeseries.Store
}

// Fingerprint reduces the report to a canonical string so a double run can
// be compared field by field (map iteration order excluded).
func (rep *ChaosReport) Fingerprint() string {
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

// RunChaos solves the Table 4 knapsack on the Figure 5 testbed while a
// seeded fault plan crashes hosts and flaps links, and reports whether every
// recovery layer did its job: the inner relay re-registering after a
// boundary flap, HBM marking a crashed Q server DOWN and UP again after its
// restart, RMF requeuing the lost job, and the fault-tolerant scheduler
// reclaiming a dead rank's work without changing the optimum. It is one
// runOn to cfg.Horizon, whose setup is the testbed steps: the recovery
// relays, the control plane, the sampler and the fault plan. The same cfg
// yields the same report, faults included.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Items <= 0 || cfg.Capacity <= 0 {
		return nil, fmt.Errorf("bench: chaos instance size %d/%d", cfg.Items, cfg.Capacity)
	}
	if cfg.Horizon <= 0 {
		return nil, errors.New("bench: chaos horizon required")
	}
	rep := &ChaosReport{}
	var mon *hbm.Monitor
	kc := KnapsackConfig{Items: cfg.Items, Capacity: cfg.Capacity, Options: cfg.Options}
	s, err := runOn(kc, func(tb *cluster.Testbed) []mpi.Placement {
		return tb.Placements(cfg.System, cfg.UseProxy)
	}, func(tb *cluster.Testbed) error {
		tb.EnableRecovery(cfg.Keepalive)
		if cfg.ControlPlane {
			mon = startControlPlane(tb, cfg, rep)
		}
		if cfg.SampleInterval > 0 && cfg.Options.Obs != nil {
			// KeepAlive: chaos kernels run to a horizon with daemons beating
			// forever, so the sampler must not stop itself when live work dips.
			smp := timeseries.NewSampler(tb.K, cfg.SampleInterval, cfg.Options.Obs.Metrics())
			smp.KeepAlive = true
			smp.Start()
			rep.Store = smp.Store()
		}
		if cfg.Plan != nil {
			return tb.ApplyPlan(cfg.Plan)
		}
		return nil
	}, horizon{at: cfg.Horizon, ft: cfg.FT, read: func(tb *cluster.Testbed) {
		rep.InnerStats = tb.Inner.Stats()
		rep.InnerRegistrations = rep.InnerStats.Registrations
		rep.OuterBoots = tb.OuterBoots
		rep.OuterStats = tb.Outer.Stats()
		if mon != nil {
			rep.HBM = mon.Snapshot(cfg.Horizon)
			rep.HBMSuspects = mon.SuspectCount()
			rep.HBMDowns = mon.DownCount()
		}
	}})
	if err != nil {
		return nil, err
	}
	rep.Solve = *s
	return rep, nil
}

// startControlPlane stands up the monitoring and job-management stack: HBM
// monitor on rwcp-inner, allocator (with HBM watcher) on rwcp-sun, a Q
// server and heartbeat reporter on every COMPaS node — with OnRestart boot
// scripts so a host restart brings them back — and one recoverable RMF job
// submitted from rwcp-sun. All of it stays inside the firewall, matching
// the paper's deployment of RMF at the protected site.
func startControlPlane(tb *cluster.Testbed, cfg ChaosConfig, rep *ChaosReport) *hbm.Monitor {
	const beat = 250 * time.Millisecond
	monAddr := transport.JoinAddr(cluster.RWCPInner, HBMPort)
	allocAddr := transport.JoinAddr(cluster.RWCPSun, rmf.AllocatorPort)

	mon := hbm.NewMonitor(beat)
	mon.SuspectWindow = cfg.SuspectWindow
	mon.LateAfter = cfg.HBMLateAfter
	mon.DownAfter = cfg.HBMDownAfter
	tb.Node(cluster.RWCPInner).SpawnDaemonOn("hbm-monitor", func(env transport.Env) {
		_ = mon.Serve(env, HBMPort, nil)
	})
	// The inner relay daemon reports its own liveness too.
	tb.Node(cluster.RWCPInner).SpawnDaemonOn("hbm-rep-nxproxy", func(env transport.Env) {
		env.Sleep(2 * time.Millisecond)
		r := &hbm.Reporter{MonitorAddr: monAddr, Name: "nxproxy-inner", Interval: beat, BeatCost: cfg.BeatCost}
		r.Start(env)
	})

	alloc := rmf.NewAllocator()
	tb.Node(cluster.RWCPSun).SpawnDaemonOn("rmf-alloc", func(env transport.Env) {
		alloc.WatchHBM(env, monAddr, beat)
		_ = alloc.Serve(env, rmf.AllocatorPort, nil)
	})

	reg := rmf.NewRegistry()
	spin := cfg.JobRuntime
	if spin <= 0 {
		spin = 3 * time.Second
	}
	reg.Register("chaos-spin", func(env transport.Env, ctx *rmf.JobContext) error {
		env.Sleep(spin)
		fmt.Fprintf(&ctx.Stdout, "spun %v on %s\n", spin, ctx.Resource)
		return nil
	})
	// chaos-burn does the same nominal amount of work as CPU time, so a
	// SlowHost straggler stretches it by the slow factor.
	reg.Register("chaos-burn", func(env transport.Env, ctx *rmf.JobContext) error {
		env.Compute(spin)
		fmt.Fprintf(&ctx.Stdout, "burned %v on %s\n", spin, ctx.Resource)
		return nil
	})
	for i := 0; i < cluster.CompasNodes; i++ {
		name := cluster.CompasNode(i)
		boot := func(env transport.Env) {
			env.Sleep(2 * time.Millisecond) // let monitor and allocator bind
			r := &hbm.Reporter{MonitorAddr: monAddr, Name: name, Interval: beat, BeatCost: cfg.BeatCost}
			r.Start(env)
			q := rmf.NewQServer(name, "compas", 1, reg)
			_ = q.Serve(env, rmf.QServerPort, allocAddr, nil)
		}
		tb.Node(name).SpawnDaemonOn("qserver-"+name, boot)
		tb.Node(name).OnRestart("qserver-"+name, boot)
	}

	exe := "chaos-spin"
	if cfg.JobCompute {
		exe = "chaos-burn"
	}
	pol := rmf.RecoveryPolicy{StatusRetries: 3}
	if cfg.Recovery != nil {
		pol = *cfg.Recovery
	}
	// submit hands one job to the allocator, under its own copy of the policy.
	submit := func(env transport.Env) (*rmf.JobHandle, error) {
		h, err := rmf.SubmitJob(env, allocAddr, rmf.JobRequest{Count: 1, Cluster: "compas", Spec: rmf.ProcessSpec{Executable: exe}})
		if err == nil {
			p := pol
			h.Recovery = &p
		}
		return h, err
	}
	tb.Node(cluster.RWCPSun).SpawnOn("chaos-qclient", func(env transport.Env) {
		env.Sleep(500 * time.Millisecond)
		h, err := submit(env)
		if err != nil {
			rep.JobErr = err
			return
		}
		rep.JobErr = h.Wait(env, 100*time.Millisecond, 30*time.Second)
		rep.JobDone = env.Now()
		rep.JobRequeues = h.Requeues
		rep.JobSpeculations = h.Speculations
		if len(h.Processes) > 0 {
			rep.JobResource = h.Processes[0].Resource
		}
	})

	// The flash crowd: ExtraJobs more submissions, staggered 50ms apart
	// starting just after the primary, so the allocator sees a burst bigger
	// than the site's CPU count. It never refuses one for that: it
	// oversubscribes, least fractional load first. The stagger is
	// deterministic — every run replays the identical arrival pattern.
	for i := 0; i < cfg.ExtraJobs; i++ {
		delay := 600*time.Millisecond + time.Duration(i)*50*time.Millisecond
		tb.Node(cluster.RWCPSun).SpawnOn(fmt.Sprintf("chaos-extra-%d", i), func(env transport.Env) {
			env.Sleep(delay)
			// ErrNoResources means no eligible candidate (every compas Q
			// server DOWN, or none registered yet), and a submit can fail on
			// a Q server that just died; retry either on a fixed
			// deterministic cadence.
			var h *rmf.JobHandle
			var err error
			for attempt := 0; attempt < 240; attempt++ {
				if h, err = submit(env); err == nil {
					break
				}
				env.Sleep(250 * time.Millisecond)
			}
			if err != nil {
				return
			}
			if h.Wait(env, 100*time.Millisecond, 60*time.Second) == nil {
				rep.ExtraJobsDone++
			}
		})
	}
	return mon
}
