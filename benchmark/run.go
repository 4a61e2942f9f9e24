package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is what one run of one workload is asked to do.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// quick shrinks every workload to about a fiftieth, for the smoke test.
	quick bool
	// root is the checkout: scenario files and baselines are read from it
	// and out/ is written under its benchmark directory.
	root string
}

// pass collects what one pass of a workload's fixed script measured. A
// workload fills it from setup and run; the engine reduces the passes of a
// run to the reported metrics.
type pass struct {
	tr   *tracer
	span int // the pass's own span, parent of everything the workload records

	wall    float64 // seconds inside timed
	allocB  uint64  // bytes allocated inside timed
	mallocs uint64  // heap objects allocated inside timed

	// work units done and the seconds they took: the workload's headline
	// rate is work/workSec.
	work, workSec float64
	// opsMS are the latencies of the workload's headline operation.
	opsMS []float64

	attempted, failed int
	// problems are correctness findings, each naming what differed.
	problems []string
	// layer holds per-layer values this pass measured directly.
	layer map[string]float64
}

// timed runs fn as the end-to-end region of the pass: wall time and bytes
// allocated are measured around it and nothing else. Spans fn records under
// p.span become children of the region's span.
func (p *pass) timed(fn func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	outer := p.span
	p.span = p.tr.begin("timed", outer)
	t0 := time.Now()
	fn()
	p.wall += time.Since(t0).Seconds()
	p.tr.end(p.span)
	p.span = outer
	runtime.ReadMemStats(&m1)
	p.allocB += m1.TotalAlloc - m0.TotalAlloc
	p.mallocs += m1.Mallocs - m0.Mallocs
}

// fail records failed operations with the reason for the first of them.
func (p *pass) fail(n int, format string, args ...any) {
	p.failed += n
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// set records a per-layer value.
func (p *pass) set(name string, v float64) { p.layer[name] = v }

// workload is one benchmark workload: a fixed script the engine repeats,
// each pass on a freshly set-up system, until the run's seconds are spent.
type workload interface {
	// setup builds what the script needs and warms it; the engine times it
	// as setup_s.
	setup(p *pass) error
	// run executes the script once, calling p.timed around the region the
	// end-to-end metrics describe.
	run(p *pass) error
	// teardown closes everything setup started. Goroutines serving single
	// connections end as those connections close.
	teardown()
}

// spanReader is a workload that derives per-layer values from the spans of
// its traced pass (the only pass a run records).
type spanReader interface {
	fromSpans(values map[string]float64, spans []span)
}

// workloadDef registers a workload under its BENCHMARK.json name.
type workloadDef struct {
	name string
	// work and op name the units of work_per_s and op_p50_ms here.
	work, op string
	// workAlias and opAlias are the names the issue that defined this
	// benchmark used for those two cells, printed beside them in reports.
	workAlias, opAlias string
	// loopback marks a workload whose traffic crosses the host's loopback
	// interface, not a link.
	loopback bool
	make     func(cfg runConfig) (workload, error)
	// probes are the layer probes run after the traced pass.
	probes []probe
}

// probe measures one layer in isolation through its public API and records
// per-layer metrics. Probes run only in a traced run.
type probe struct {
	name string
	fn   func(c *probeCtx) error
}

// probeCtx is what a probe gets: the run's configuration and the place to
// record values. The engine puts a span around each probe.
type probeCtx struct {
	cfg   runConfig
	layer map[string]float64
}

func (c *probeCtx) set(name string, v float64) { c.layer[name] = v }

// workloads lists every workload in BENCHMARK.json order.
func workloads() []workloadDef {
	return []workloadDef{
		table4Def(), fleetDef(), scenarioDef(), dataplaneDef(),
		relayDef(), submitDef(),
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads() {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// measured is one metric value as the result line carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the contract's result line.
type runResult struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// runDetail is what a run knows beyond the result line; the suite mode reads
// it from the "detail:" line for its report.
type runDetail struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Passes    int       `json:"passes"`
	PassWalls []float64 `json:"pass_wall_s"`
	OpSamples int       `json:"op_samples"`
	TailLevel float64   `json:"op_tail_level"`
	TailMS    float64   `json:"op_tail_ms"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Problems  []string  `json:"problems,omitempty"`
	Loopback  bool      `json:"loopback,omitempty"`
	// Spans sums the traced run's spans by name, largest self time first.
	Spans []spanRow `json:"spans,omitempty"`
	// measured names the per-layer metrics a traced run produced itself, as
	// opposed to those it reported as 0 because it bypasses their layer.
	measured []string
}

// spanRow is one span name's share of a traced run.
type spanRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// minPasses is the least number of passes an untraced run makes.
const minPasses = 3

// runOne runs the workload as cfg asks and returns the result line's content.
func runOne(cfg runConfig, spec *benchSpec) (*runResult, *runDetail, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok || !spec.hasWorkload(cfg.workload) {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	w, err := def.make(cfg)
	if err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	var passes []*pass
	var setups []float64
	onePass := func(t *tracer) error {
		t.nextRun()
		p := &pass{tr: t, layer: map[string]float64{}}
		p.span = t.begin("pass", noSpan)
		id := t.begin("setup", p.span)
		t0 := time.Now()
		err := w.setup(p)
		setups = append(setups, time.Since(t0).Seconds())
		t.end(id)
		if err == nil {
			err = w.run(p)
		}
		w.teardown()
		t.end(p.span)
		passes = append(passes, p)
		return err
	}

	start := time.Now()
	if cfg.trace {
		// A warming pass, then one pass with the recorder off and one with
		// it on: the difference of the last two is what recording costs on
		// this workload.
		for _, t := range []*tracer{nil, nil, tr} {
			if err := onePass(t); err != nil {
				return nil, nil, err
			}
		}
	} else {
		// At least minPasses, so that the reported value is a true median
		// and the pass that warmed the process is not it.
		for len(passes) < minPasses || time.Since(start).Seconds() < cfg.seconds {
			if err := onePass(nil); err != nil {
				return nil, nil, err
			}
		}
	}

	res := &runResult{Metrics: map[string]measured{}}
	det := &runDetail{Workload: cfg.workload, Seed: cfg.seed, Passes: len(passes), Loopback: def.loopback}
	var walls, rates, allocs, ops []float64
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		det.Problems = append(det.Problems, p.problems...)
		walls = append(walls, p.wall)
		allocs = append(allocs, float64(p.allocB)/1e6)
		if p.workSec > 0 {
			rates = append(rates, p.work/p.workSec)
		}
		ops = append(ops, p.opsMS...)
	}
	res.Correct = res.Failed == 0 && len(det.Problems) == 0
	det.PassWalls = walls
	det.OpSamples = len(ops)
	det.TailLevel, det.TailMS = tailPercentile(ops)
	det.PeakRSSMB = peakRSSMB()

	values := map[string]float64{}
	if cfg.trace {
		last := passes[len(passes)-1]
		for k, v := range last.layer {
			values[k] = v
		}
		if sr, ok := w.(spanReader); ok {
			sr.fromSpans(values, tr.snapshot())
		}
		values["trace.overhead_pct"] = (passes[2].wall - passes[1].wall) / passes[1].wall * 100
		if err := runProbes(cfg, def, tr, values); err != nil {
			return nil, nil, err
		}
		spans := tr.snapshot()
		values["trace.spans"] = float64(len(spans))
		if det.Spans, err = reportSpans(cfg, spans); err != nil {
			return nil, nil, err
		}
		for name := range values {
			det.measured = append(det.measured, name)
		}
		if err := fillDeclared(res, values, spec.PerLayer, true); err != nil {
			return nil, nil, err
		}
	} else {
		values["setup_s"] = median(setups)
		values["wall_s"] = median(walls)
		values["work_per_s"] = median(rates)
		values["op_p50_ms"] = median(ops)
		values["alloc_mb"] = median(allocs)
		if err := fillDeclared(res, values, spec.EndToEnd, false); err != nil {
			return nil, nil, err
		}
	}
	return res, det, nil
}

// runProbes runs the workload's layer probes, each under its own span.
func runProbes(cfg runConfig, def workloadDef, tr *tracer, values map[string]float64) error {
	pc := &probeCtx{cfg: cfg, layer: values}
	tr.nextRun()
	all := tr.begin("probes", noSpan)
	defer tr.end(all)
	for _, pr := range def.probes {
		id := tr.begin("probe:"+pr.name, all)
		err := pr.fn(pc)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("probe %s: %w", pr.name, err)
		}
	}
	return nil
}

// reportSpans writes the run's spans under benchmark/out/ and sums them by
// name, largest self time first.
func reportSpans(cfg runConfig, spans []span) ([]spanRow, error) {
	out := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(out, "spans-"+cfg.workload+".jsonl"), spans); err != nil {
		return nil, err
	}
	total, self, count := spanSums(spans)
	rows := make([]spanRow, 0, len(total))
	for name := range total {
		rows = append(rows, spanRow{name, count[name], total[name], self[name]})
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		return a.SelfS > b.SelfS || a.SelfS == b.SelfS && a.Name < b.Name
	})
	return rows, nil
}

// fillDeclared copies values into the result under exactly the declared
// names. A produced value nobody declared is an error, and so is a declared
// end-to-end metric nobody produced: a renamed metric must fail loudly, not
// vanish. A declared per-layer metric this workload does not produce reads
// 0: the workload bypasses that layer.
func fillDeclared(res *runResult, values map[string]float64, declared []metricSpec, zeroMissing bool) error {
	known := map[string]bool{}
	for _, m := range declared {
		known[m.Name] = true
		v, ok := values[m.Name]
		if !ok && !zeroMissing {
			return fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %q is not finite (%v)", m.Name, v)
		}
		res.Metrics[m.Name] = measured{Value: v, Unit: m.Unit}
	}
	var stray []string
	for k := range values {
		if !known[k] {
			stray = append(stray, k)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("measured but not declared in BENCHMARK.json: %s", strings.Join(stray, ", "))
	}
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM), or 0 where /proc
// does not give it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// printRun writes the human-readable block, the detail line and, last, the
// result line.
func printRun(cfg runConfig, def workloadDef, res *runResult, det *runDetail) error {
	fmt.Printf("workload %s seed %d: %d passes, %d attempted, %d failed\n",
		cfg.workload, cfg.seed, det.Passes, res.Attempted, res.Failed)
	if def.loopback {
		fmt.Println("  traffic crossed the host's loopback interface, not a real link")
	}
	if !cfg.trace {
		fmt.Printf("  work_per_s counts %s; op_p50_ms times %s (%d samples, p%g = %.6g ms)\n",
			def.work, def.op, det.OpSamples, det.TailLevel, det.TailMS)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if m := res.Metrics[k]; m.Value != 0 {
			fmt.Printf("  %-34s %14.6g %s\n", k, m.Value, m.Unit)
		}
	}
	if len(det.Spans) > 0 {
		fmt.Printf("  spans of the traced pass and the probes, by self time (duration minus what child spans cover):\n")
		fmt.Printf("  %-34s %8s %12s %12s\n", "span", "count", "total s", "self s")
		for _, r := range det.Spans {
			fmt.Printf("  %-34s %8d %12.6f %12.6f\n", r.Name, r.Count, r.TotalS, r.SelfS)
		}
	}
	for _, pr := range det.Problems {
		fmt.Printf("  INCORRECT: %s\n", pr)
	}
	d, err := json.Marshal(det)
	if err != nil {
		return err
	}
	fmt.Printf("detail: %s\n", d)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}
