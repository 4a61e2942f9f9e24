package main

import (
	"fmt"
	"strconv"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/fleet"
	"nxcluster/internal/hbm"
	"nxcluster/internal/mds"
	"nxcluster/internal/obs"
	"nxcluster/internal/rmf"
	"nxcluster/internal/sim"
)

// fleetRun is the fleet-scale run of scenarios/fleet-10k.yaml: 100 sites x
// 100 hosts absorbing a million open-loop Pareto jobs, all on the
// event-oriented path (kernel heap, hierarchical message routes, sharded
// allocation, batched heartbeats and MDS publishing). Arrivals are open-loop
// in virtual time; in host time the run is one batch.
type fleetRun struct {
	cfg  runConfig
	fcfg fleet.Config
	exp  *expected
	eng  *fleet.Engine
}

// fleetShape is the exact workload of scenarios/fleet-10k.yaml.
func fleetShape(seed uint64) fleet.Config {
	return fleet.Config{
		Sites: 100, HostsPerSite: 100, Jobs: 1_000_000, Seed: seed,
		Arrivals: fleet.RateShape{Kind: fleet.RateConstant, Rate: 6000},
		Sizes:    fleet.SizeDist{Kind: fleet.DistPareto, Alpha: 1.5, Min: time.Second, Max: 5 * time.Minute},
	}
}

// smallFleetShape is the 512-host shape of BenchmarkFleetSweep (16 x 32,
// 50k jobs at 0.85 utilisation), used where 10k hosts would be too slow:
// the warm-up, the scale comparison and the traced pair.
func smallFleetShape(seed uint64, jobs int) fleet.Config {
	const sites, hosts = 16, 32
	return fleet.Config{
		Sites: sites, HostsPerSite: hosts, Jobs: jobs, Seed: seed,
		Arrivals:  fleet.RateShape{Kind: fleet.RateConstant, Rate: 0.85 * sites * hosts * 2 / 10.0},
		Sizes:     fleet.SizeDist{Kind: fleet.DistPareto, Alpha: 1.5, Min: time.Second, Max: 5 * time.Minute},
		Heartbeat: 30 * time.Second,
	}
}

func fleetDef() workloadDef {
	return workloadDef{
		name:      "fleet-10k",
		workAlias: "events_per_s",
		work:      "kernel events (fleet.Result.Events)",
		op:        "one whole Engine.Run",
		make: func(cfg runConfig) (workload, error) {
			w := &fleetRun{cfg: cfg, fcfg: fleetShape(cfg.seed)}
			if cfg.quick {
				w.fcfg.Sites, w.fcfg.HostsPerSite, w.fcfg.Jobs = 8, 16, 20_000
				w.fcfg.Arrivals.Rate = 0.85 * 8 * 16 * 2 / 10.0
			}
			var err error
			w.exp, err = loadExpected(cfg)
			return w, err
		},
		probes: []probe{
			{"sim.event", probeSimEvent},
			{"simnet.msg", probeSimnetMsg},
			{"rmf.shard", probeShard},
			{"mds.directory", probeMDSDirectory},
			{"hbm.monitor", probeHBM},
			{"fleet.h512", probeFleetSmall},
		},
	}
}

// runFleet drives one engine to completion and shuts its kernel down.
func runFleet(cfg fleet.Config) (fleet.Result, error) {
	e, err := fleet.New(cfg)
	if err != nil {
		return fleet.Result{}, err
	}
	defer e.Kernel().Shutdown()
	if err := e.Run(); err != nil {
		return fleet.Result{}, err
	}
	return e.Result(), nil
}

// setup warms the runtime on a small fleet, then builds the topology of the
// run proper (fleet.New), which is what setup_s is here to watch.
func (w *fleetRun) setup(p *pass) error {
	jobs := 20_000
	if w.cfg.quick {
		jobs = 2_000
	}
	if _, err := runFleet(smallFleetShape(w.cfg.seed, jobs)); err != nil {
		return err
	}
	id := p.tr.begin("fleet.New", p.span)
	t0 := time.Now()
	e, err := fleet.New(w.fcfg)
	p.set("cluster.fleet_build_ms", float64(time.Since(t0).Nanoseconds())/1e6)
	p.tr.end(id)
	w.eng = e
	return err
}

func (w *fleetRun) run(p *pass) error {
	var runErr error
	p.timed(func() {
		id := p.tr.begin("fleet.Engine.Run", p.span)
		runErr = w.eng.Run()
		p.tr.end(id)
	})
	jobs := w.fcfg.Jobs
	p.attempted += jobs
	if runErr != nil {
		p.fail(jobs, "Engine.Run: %v", runErr)
		return nil
	}
	id := p.tr.begin("fleet.Engine.Result", p.span)
	r := w.eng.Result()
	p.tr.end(id)
	if r.Jobs != jobs {
		p.fail(jobs-r.Jobs, "fleet completed %d of %d jobs", r.Jobs, jobs)
	}
	// The scenario file's own floor: at least six kernel events per job.
	if r.Events < 6*uint64(jobs) {
		p.fail(1, "fleet stamped %d events, below the floor of %d", r.Events, 6*jobs)
	}
	if w.exp != nil {
		if got := strconv.FormatUint(r.Fingerprint, 16); got != w.exp.FleetFingerprint || r.Events != w.exp.FleetEvents {
			p.fail(1, "fleet-10k fingerprint %s events %d, expected.json has %s and %d",
				got, r.Events, w.exp.FleetFingerprint, w.exp.FleetEvents)
		}
	}
	p.work += float64(r.Events)
	p.workSec += p.wall
	p.opsMS = append(p.opsMS, p.wall*1e3)

	p.set("sim.events", float64(r.Events))
	p.set("fleet.events_per_job", float64(r.Events)/float64(jobs))
	p.set("fleet.allocs_per_job", float64(p.mallocs)/float64(jobs))
	p.set("fleet.queued_peak", float64(r.QueuedPeak))
	p.set("fleet.peak_rss_mb", peakRSSMB())
	return nil
}

func (w *fleetRun) teardown() {
	if w.eng != nil {
		w.eng.Kernel().Shutdown()
		w.eng = nil
	}
}

// rearm is an event handler that re-arms itself until its count runs out:
// the kernel's event path with no Proc involved.
type rearm struct{ left int }

func (r *rearm) OnEvent(k *sim.Kernel) {
	if r.left--; r.left > 0 {
		k.AfterEvent(time.Microsecond, r)
	}
}

// probeSimEvent times firing an AfterEvent handler, and arming and stopping
// a timer: the two kernel operations the fleet engine lives on.
func probeSimEvent(c *probeCtx) error {
	n := scaled(c.cfg, 2_000_000, 20_000)
	k := sim.New()
	k.AfterEvent(time.Microsecond, &rearm{left: n})
	var runErr error
	cst := measure(func() { runErr = k.Run() })
	if runErr != nil {
		return runErr
	}
	c.set("sim.event_ns", cst.ns/float64(n))

	fn := func() {}
	cst = measure(func() {
		for i := 0; i < n; i++ {
			k.After(time.Second, fn).Stop()
		}
	})
	k.Shutdown()
	c.set("sim.timer_stop_ns", cst.ns/float64(n))
	return nil
}

// probeSimnetMsg times control datagrams on a 4 x 8 fleet topology: a warm
// chain between one host pair (per hop), and the first message between each
// ordered pair of hosts, which has to compose its route first.
func probeSimnetMsg(c *probeCtx) error {
	fl := cluster.NewFleet(cluster.FleetOptions{Sites: 4, HostsPerSite: 8})
	defer fl.K.Shutdown()
	src, dst := fl.Hosts[0][0], fl.Hosts[3][7]
	hops, err := fl.Net.Hops(src, dst)
	if err != nil {
		return err
	}
	n := scaled(c.cfg, 200_000, 2_000)
	left := n
	var sendErr error
	var next func()
	next = func() {
		if left--; left > 0 && sendErr == nil {
			sendErr = fl.Net.SendMessage(src, dst, 256, next)
		}
	}
	if err := fl.Net.SendMessage(src, dst, 256, next); err != nil {
		return err
	}
	var runErr error
	cst := measure(func() { runErr = fl.K.Run() })
	if runErr != nil || sendErr != nil {
		return fmt.Errorf("message chain: run %v, send %v", runErr, sendErr)
	}
	c.set("simnet.msg_hop_ns", cst.ns/float64(n)/float64(hops))

	cold := cluster.NewFleet(cluster.FleetOptions{Sites: 4, HostsPerSite: 8})
	defer cold.K.Shutdown()
	var all []string
	for _, hs := range cold.Hosts {
		all = append(all, hs...)
	}
	pairs := 0
	cst = measure(func() {
		for _, a := range all {
			for _, b := range all {
				if a != b && sendErr == nil {
					sendErr = cold.Net.SendMessage(a, b, 256, func() {})
					pairs++
				}
			}
		}
		runErr = cold.K.Run()
	})
	if runErr != nil || sendErr != nil {
		return fmt.Errorf("cold routes: run %v, send %v", runErr, sendErr)
	}
	c.set("simnet.route_cold_ns", cst.ns/float64(pairs))
	return nil
}

// probeShard times an allocate/release pair on a site shard of the
// workload's size (100 hosts x 2 cpus).
func probeShard(c *probeCtx) error {
	n := scaled(c.cfg, 2_000_000, 20_000)
	s := rmf.NewUniformShard(100, 2)
	// Half-fill first, so the heap is in its working state.
	for i := 0; i < 100; i++ {
		s.Allocate()
	}
	var miss int
	cst := measure(func() {
		for i := 0; i < n; i++ {
			h, ok := s.Allocate()
			if !ok {
				miss++
				continue
			}
			s.Release(h)
		}
	})
	if miss > 0 {
		return fmt.Errorf("shard refused %d of %d allocations at half load", miss, n)
	}
	c.set("rmf.shard_alloc_ns", cst.ns/float64(n))
	c.set("rmf.shard_allocs", cst.mallocs/float64(n))
	return nil
}

// probeMDSDirectory fills a directory the size fleet-10k ends with (100 site
// rows and 10,000 host rows) through the batched publisher, then times a
// presence search over all of it.
func probeMDSDirectory(c *probeCtx) error {
	sites, hosts := 100, 100
	if c.cfg.quick {
		sites, hosts = 10, 20
	}
	dir := mds.NewDirectory()
	pub := mds.NewPublisher(dir, "ou=fleet, o=grid", time.Minute)
	rows := make([]mds.StatusRow, 0, sites*hosts+sites)
	for s := 0; s < sites; s++ {
		rows = append(rows, mds.StatusRow{Name: cluster.FleetSite(s),
			Attrs: map[string][]string{"status": {"up"}, "hosts": {strconv.Itoa(hosts)}}})
		for h := 0; h < hosts; h++ {
			rows = append(rows, mds.StatusRow{Name: cluster.FleetHost(s, h),
				Attrs: map[string][]string{"status": {"up"}, "load": {"1"}, "cpus": {"2"}}})
		}
	}
	cst := measure(func() { pub.Publish(time.Second, rows) })
	if dir.Len() != len(rows) {
		return fmt.Errorf("directory holds %d entries after publishing %d rows", dir.Len(), len(rows))
	}
	c.set("mds.publish_ns_per_host", cst.ns/float64(len(rows)))

	f, err := mds.ParseFilter("(status=*)")
	if err != nil {
		return err
	}
	n := scaled(c.cfg, 20, 3)
	var found int
	cst = measure(func() {
		for i := 0; i < n; i++ {
			es, err := dir.Search("ou=fleet, o=grid", f)
			if err == nil {
				found = len(es)
			}
		}
	})
	if found != len(rows) {
		return fmt.Errorf("search (status=*) found %d of %d entries", found, len(rows))
	}
	c.set("mds.search_us.e10k", cst.ns/float64(n)/1e3)
	return nil
}

// probeHBM times a batched heartbeat over 10,000 names and a single status
// lookup on the same monitor.
func probeHBM(c *probeCtx) error {
	hosts := scaled(c.cfg, 10_000, 200)
	names := make([]string, hosts)
	for i := range names {
		names[i] = cluster.FleetHost(i/100, i%100)
	}
	m := hbm.NewMonitor(10 * time.Second)
	m.BeatBatch(0, names)
	ticks := scaled(c.cfg, 200, 10)
	cst := measure(func() {
		for t := 1; t <= ticks; t++ {
			m.BeatBatch(time.Duration(t)*10*time.Second, names)
		}
	})
	c.set("hbm.beat_batch_ns_per_host", cst.ns/float64(ticks)/float64(hosts))

	now := time.Duration(ticks) * 10 * time.Second
	n := scaled(c.cfg, 1_000_000, 10_000)
	var bad int
	cst = measure(func() {
		for i := 0; i < n; i++ {
			if h, err := m.Status(names[i%hosts], now); err != nil || h != hbm.Up {
				bad++
			}
		}
	})
	if bad > 0 {
		return fmt.Errorf("%d of %d status lookups were not UP", bad, n)
	}
	c.set("hbm.status_ns", cst.ns/float64(n))
	return nil
}

// probeFleetSmall runs the 512-host shape three ways: untraced (against
// fleet-10k's rate this is the scale fall-off), and traced with every
// hundredth job sampled, which gives what the program's own tracing costs
// the event path in wall time and in allocation.
func probeFleetSmall(c *probeCtx) error {
	jobs := scaled(c.cfg, 50_000, 2_000)
	var res fleet.Result
	var err error
	plain := measure(func() { res, err = runFleet(smallFleetShape(c.cfg.seed, jobs)) })
	if err != nil {
		return err
	}
	c.set("fleet.events_per_s.h512", float64(res.Events)/(plain.ns/1e9))

	tcfg := smallFleetShape(c.cfg.seed, jobs)
	tcfg.Obs, tcfg.TraceSample = obs.New(), 100
	traced := measure(func() { _, err = runFleet(tcfg) })
	if err != nil {
		return err
	}
	c.set("obs.fleet_traced_wall_x", traced.ns/plain.ns)
	c.set("obs.fleet_traced_alloc_mb", traced.bytes/1e6)
	return nil
}
