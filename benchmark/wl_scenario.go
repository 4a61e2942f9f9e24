package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/firewall"
	"nxcluster/internal/obs"
	"nxcluster/internal/scenario"
	"nxcluster/internal/transport"
)

// scenarioSuite is `make scenarios` without the two fleet files: every
// other file under scenarios/, in sorted order, through Parse, Validate and
// Run (which runs each workload twice and compares). It drives the same
// simulator layers as table4-cap5 the other way round: observer attached,
// fault plans, recovery, speculation, the flow model, the timeseries sampler.
// The seed goes to each scenario's kernels (and to the loss process of the
// gridftp kind); seed 1 is what the files themselves say.
type scenarioSuite struct {
	cfg   runConfig
	files []scenarioFile
	// baseline maps scenario name to its committed result.
	baseline map[string]scenario.Result
}

type scenarioFile struct {
	path string
	data []byte
}

// scenarioKinds are the kinds the suite holds; each gets a run_s metric.
var scenarioKinds = []scenario.Kind{
	scenario.KindChaos, scenario.KindGrid, scenario.KindMonitor,
	scenario.KindTable4, scenario.KindTable2, scenario.KindGridFTP,
}

// quickScenarios are the two files the smoke test runs.
var quickScenarios = map[string]bool{"table2-rtt.yaml": true, "grid-wan-outage.yaml": true}

func scenarioDef() workloadDef {
	return workloadDef{
		name: "scenario-suite",
		work: "invariants checked (scenario.Result.Invariants)",
		op:   "one scenario file: Parse, Validate, Run",
		make: func(cfg runConfig) (workload, error) { return &scenarioSuite{cfg: cfg}, nil },
		probes: []probe{
			{"simnet.dial", probeSimnetDial},
			{"firewall.check", probeFirewall},
			{"obs.span", probeObsSpan},
			{"cluster.testbed", probeTestbedBuild},
		},
	}
}

// setup reads the scenario files and the committed baseline, keeps the
// non-fleet ones, and runs the cheapest scenario once to warm the runtime.
func (w *scenarioSuite) setup(p *pass) error {
	paths, err := filepath.Glob(filepath.Join(w.cfg.root, "scenarios", "*.yaml"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	w.files = w.files[:0]
	for _, path := range paths {
		if w.cfg.quick && !quickScenarios[filepath.Base(path)] {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		spec, err := scenario.Parse(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if spec.Kind == scenario.KindFleet {
			continue // fleet-10k is its own workload
		}
		w.files = append(w.files, scenarioFile{path, data})
		if filepath.Base(path) == "table2-rtt.yaml" {
			if _, err := scenario.Run(spec); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	if len(w.files) == 0 {
		return fmt.Errorf("no scenario files under %s", filepath.Join(w.cfg.root, "scenarios"))
	}
	w.baseline = nil
	if pinned(w.cfg) {
		data, err := os.ReadFile(filepath.Join(w.cfg.root, "SCENARIOS_suite.json"))
		if err != nil {
			return err
		}
		var suite scenario.SuiteResult
		if err := json.Unmarshal(data, &suite); err != nil {
			return fmt.Errorf("SCENARIOS_suite.json: %w", err)
		}
		w.baseline = map[string]scenario.Result{}
		for _, r := range suite.Scenarios {
			w.baseline[r.Name] = r
		}
	}
	return nil
}

func (w *scenarioSuite) run(p *pass) error {
	type outcome struct {
		file string
		res  *scenario.Result
		err  error
		ms   float64
	}
	outcomes := make([]outcome, 0, len(w.files))
	var parseNS, parseMallocs, validateNS float64
	p.timed(func() {
		for _, f := range w.files {
			o := outcome{file: filepath.Base(f.path)}
			t0 := time.Now()
			fileSpan := p.tr.begin("scenario.file", p.span)

			id := p.tr.begin("scenario.Parse", fileSpan)
			var spec *scenario.Spec
			parse := func() { spec, o.err = scenario.Parse(f.data) }
			if p.tr != nil {
				c := measure(parse)
				parseNS, parseMallocs = parseNS+c.ns, parseMallocs+c.mallocs
			} else {
				parse()
			}
			p.tr.end(id)

			if o.err == nil {
				if spec.Kind == scenario.KindGridFTP {
					spec.GridFTP.Seed = w.cfg.seed
				} else {
					spec.Topology.Seed = w.cfg.seed
				}
				id = p.tr.begin("scenario.Validate", fileSpan)
				v0 := time.Now()
				o.err = scenario.Validate(spec)
				validateNS += float64(time.Since(v0).Nanoseconds())
				p.tr.end(id)
			}
			if o.err == nil {
				id = p.tr.begin("scenario.Run:"+string(spec.Kind), fileSpan)
				o.res, o.err = scenario.Run(spec)
				p.tr.end(id)
			}
			p.tr.end(fileSpan)
			o.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
			outcomes = append(outcomes, o)
		}
	})

	invariants := 0
	for _, o := range outcomes {
		p.opsMS = append(p.opsMS, o.ms)
		if o.err != nil {
			p.attempted++
			p.fail(1, "%s: %v", o.file, o.err)
			continue
		}
		r := o.res
		p.attempted += r.Invariants
		invariants += r.Invariants
		if !r.Passed {
			p.fail(max(1, len(r.Failures)), "%s: %s", o.file, strings.Join(r.Failures, "; "))
		}
		if w.baseline == nil {
			continue
		}
		want, ok := w.baseline[r.Name]
		switch {
		case !ok:
			p.fail(1, "scenario %s has no entry in SCENARIOS_suite.json", r.Name)
		case r.TraceHash != want.TraceHash:
			p.fail(1, "scenario %s: trace_hash %s, SCENARIOS_suite.json has %s", r.Name, r.TraceHash, want.TraceHash)
		case r.Fingerprint != want.Fingerprint:
			p.fail(1, "scenario %s: fingerprint %q, SCENARIOS_suite.json has %q", r.Name, r.Fingerprint, want.Fingerprint)
		}
	}
	p.work += float64(invariants)
	p.workSec += p.wall
	if p.tr != nil {
		n := float64(len(w.files))
		p.set("scenario.parse_us_per_file", parseNS/n/1e3)
		p.set("scenario.parse_allocs", parseMallocs/n)
		p.set("scenario.validate_ms", validateNS/1e6)
	}
	return nil
}

func (w *scenarioSuite) teardown() {}

// fromSpans charges each file's whole span (parse, validate, both runs and
// the gaps between them) to its kind, so the kinds sum to the pass's wall.
func (w *scenarioSuite) fromSpans(values map[string]float64, spans []span) {
	kindOf := map[int]string{} // file span id -> kind, read off its Run child
	for _, s := range spans {
		if kind, ok := strings.CutPrefix(s.Name, "scenario.Run:"); ok {
			kindOf[s.Parent] = kind
		}
	}
	for _, k := range scenarioKinds {
		values["scenario.run_s."+string(k)] = 0
	}
	for _, s := range spans {
		if s.Name == "scenario.file" {
			if kind, ok := kindOf[s.ID]; ok {
				values["scenario.run_s."+kind] += float64(s.End-s.Start) / 1e9
			}
		}
	}
}

// probeSimnetDial times opening and closing a simulated connection between
// two hosts of the Figure 5 testbed, firewall check included.
func probeSimnetDial(c *probeCtx) error {
	n := scaled(c.cfg, 5_000, 100)
	tb := cluster.NewTestbed(cluster.Options{})
	defer tb.Shutdown()
	var probeErr error
	tb.Node(cluster.CompasNode(0)).SpawnDaemonOn("sink", func(env transport.Env) {
		l, err := env.Listen(9000)
		if err != nil {
			probeErr = err
			return
		}
		for {
			conn, err := l.Accept(env)
			if err != nil {
				return
			}
			_ = conn.Close(env)
		}
	})
	tb.Node(cluster.RWCPSun).SpawnOn("dialer", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		addr := transport.JoinAddr(cluster.CompasNode(0), 9000)
		for i := 0; i < n && probeErr == nil; i++ {
			conn, err := env.Dial(addr)
			if err != nil {
				probeErr = err
				return
			}
			_ = conn.Close(env)
		}
	})
	var runErr error
	cst := measure(func() { runErr = tb.Run() })
	if probeErr != nil {
		return probeErr
	}
	if runErr != nil {
		return runErr
	}
	c.set("simnet.dial_ns", cst.ns/float64(n))
	return nil
}

// probeFirewall times one connection verdict on the RWCP-style firewall
// (deny by default, the nxport allowed), half allowed and half denied.
func probeFirewall(c *probeCtx) error {
	n := scaled(c.cfg, 1_000_000, 10_000)
	fw := firewall.New("rwcp")
	fw.AllowIncomingPort(cluster.NXPort, "nxport")
	allowed := 0
	cst := measure(func() {
		for i := 0; i < n; i++ {
			port := cluster.NXPort
			if i&1 == 1 {
				port = 9000
			}
			if fw.PermitConn(firewall.Incoming, cluster.RWCPOuter, cluster.RWCPInner, port) {
				allowed++
			}
		}
	})
	if allowed != (n+1)/2 {
		return fmt.Errorf("firewall allowed %d of %d, want the nxport half", allowed, n)
	}
	c.set("firewall.check_ns", cst.ns/float64(n))
	return nil
}

// probeObsSpan times the program's own span hot path, enabled and disabled,
// as BenchmarkObsSpan does: every scenario runs with an observer attached.
func probeObsSpan(c *probeCtx) error {
	n := scaled(c.cfg, 1<<20, 1<<14)
	var off *obs.Observer
	cst := measure(func() {
		for i := 0; i < n; i++ {
			at := time.Duration(i)
			id := off.Begin(at, "rmf", "job", "bench")
			off.End(at+1, id, "rmf", "job", "bench")
		}
	})
	c.set("obs.span_disabled_ns", cst.ns/float64(n))

	// A fresh observer every 64k spans keeps buffer growth out of the figure.
	const chunk = 1 << 16
	var total float64
	for done := 0; done < n; done += chunk {
		on := obs.New()
		total += measure(func() {
			for i := 0; i < chunk && done+i < n; i++ {
				at := time.Duration(i)
				id := on.Begin(at, "rmf", "job", "bench")
				on.End(at+1, id, "rmf", "job", "bench")
			}
		}).ns
	}
	c.set("obs.span_ns", total/float64(n))
	return nil
}
