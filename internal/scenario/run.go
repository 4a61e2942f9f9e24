package scenario

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/chaos"
	"nxcluster/internal/fleet"
	"nxcluster/internal/obs"
	"nxcluster/internal/obs/timeseries"
)

// Result is the outcome of running one scenario. The JSON shape is a row of
// SCENARIOS_suite.json, which TestShippedScenariosRun decodes into this type.
type Result struct {
	Name       string   `json:"name"`
	Kind       string   `json:"kind"`
	Passed     bool     `json:"passed"`
	Invariants int      `json:"invariants"`
	Failures   []string `json:"failures,omitempty"`
	// TraceHash is the run's FNV-64a determinism witness (hex): the full
	// observability trace for chaos, the kernel event traces for grid, the
	// time-series serialization for monitor, and the canonical result
	// fingerprint for the stateless bench sweeps.
	TraceHash string `json:"trace_hash"`
	// Fingerprint is the canonical rendering of the run's results that the
	// double run is compared on.
	Fingerprint string `json:"fingerprint"`
	ElapsedMS   int64  `json:"elapsed_ms"`
}

// SuiteResult aggregates a run over many scenario files.
type SuiteResult struct {
	Scenarios []Result `json:"scenarios"`
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

// Counts returns total scenarios, invariants checked, and failures.
func (r *SuiteResult) Counts() (scenarios, invariants, failures int) {
	for _, s := range r.Scenarios {
		scenarios++
		invariants += s.Invariants
		failures += len(s.Failures)
	}
	return
}

// gridRun carries a grid result plus the instance shape its assertions need.
type gridRun struct {
	items, capacity int
	res             *bench.GridResult
}

// fleetRun carries a fleet result plus the config its assertions need.
type fleetRun struct {
	cfg fleet.Config
	res fleet.Result
}

// outcome is what one run of a scenario's workload leaves behind.
type outcome struct {
	// v is what the kind's assertions read.
	v any
	// fp is the canonical rendering of the results that the Result records;
	// full is the one the double run is compared on — the same string except
	// for chaos, whose rows record the elapsed and job times only.
	fp, full string
	// hash is the FNV-64a determinism witness.
	hash    uint64
	elapsed time.Duration
	// trace is the recorded trace behind a chaos run's hash, for the latency
	// SLOs and for naming the first divergent event; nil when the run only
	// folded its records into the hash.
	trace *obs.Observer
}

// Run executes one validated scenario: the workload twice (the implicit
// determinism invariant every scenario carries) and a chaos scenario's
// baseline once, then each declared assertion, the baseline comparison and
// the SLO objectives against the first run. The runs share nothing — each
// builds its own kernels — so they go through bench.RunParallel side by
// side; GOMAXPROCS=1 runs the primary, then the replay, then the baseline.
// Chaos runs keep their traces as hashes alone (a primary judging a latency
// SLO records), so a chaos double run that diverges is run again, recording,
// to name the first event it parts at. Harness errors — a config the runner
// rejects — come back as the error, the primary's first; assertion
// violations and determinism breaks are recorded as failures in the Result.
func Run(s *Spec) (*Result, error) {
	if err := s.checkShape(); err != nil {
		return nil, err
	}
	checks, err := buildAsserts(s)
	if err != nil {
		return nil, err
	}
	var compare func(rep, base *chaos.Report) error
	if s.Baseline != nil && s.Compare != "" {
		if compare, err = comparatorOf(s.Compare); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
	}

	const primary, replay, baseline = 0, 1, 2
	labels := [...]string{primary: "", replay: " (replay)", baseline: " (baseline)"}
	specs := []*Spec{primary: s, replay: s}
	if s.Baseline != nil {
		specs = append(specs, s.Baseline)
	}
	// Only a latency objective reads a trace's events, the primary's.
	record := s.SLO != nil && len(s.SLO.Latency) > 0
	runs := make([]outcome, len(specs))
	err = bench.RunParallel(len(specs), 0, func(i int) error {
		out, err := specs[i].runOnce(i != baseline, i == primary && record)
		if err != nil {
			return fmt.Errorf("scenario %s%s: %w", s.Name, labels[i], err)
		}
		if out.full == "" {
			out.full = out.fp
		}
		runs[i] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	first := &runs[primary]
	res := &Result{
		Name:        s.Name,
		Kind:        string(s.Kind),
		TraceHash:   fmt.Sprintf("%016x", first.hash),
		Fingerprint: first.fp,
		ElapsedMS:   first.elapsed.Milliseconds(),
	}
	res.Invariants++ // the implicit determinism invariant
	var rerun func() (a, b *obs.Observer, err error)
	if s.Kind == KindChaos {
		rerun = s.recordPair
	}
	if d := divergence(first, &runs[replay], rerun); d != "" {
		res.Failures = append(res.Failures, d)
	}
	for _, c := range checks {
		res.Invariants++
		if err := c.Fn(first.v); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", c.Name, err))
		}
	}
	if compare != nil {
		res.Invariants++
		if err := compare(first.v.(*chaos.Report), runs[baseline].v.(*chaos.Report)); err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("baseline-compare: %v", err))
		}
	}
	if s.SLO != nil {
		// checkShape restricts SLOs to the two kinds that run with an observer
		// attached; both reports carry the windowed store.
		var events []obs.Event
		var store *timeseries.Store
		switch rep := first.v.(type) {
		case *bench.MonitorReport:
			events, store = rep.Obs.Events(), rep.Store
		case *chaos.Report:
			events, store = first.trace.Events(), rep.Store
		}
		res.Invariants += s.SLO.Objectives()
		res.Failures = append(res.Failures, s.SLO.Evaluate(events, store)...)
	}
	res.Passed = len(res.Failures) == 0
	return res, nil
}

// runOnce executes the spec's workload once. Each run hashes its own witness
// here, inside its RunParallel job; witness false (a baseline, whose report
// alone is read) skips the comparison strings. A chaos run stores its trace
// only when record is set; otherwise its observer folds each record into the
// hash and keeps nothing (the sampler still reads its metrics).
func (s *Spec) runOnce(witness, record bool) (outcome, error) {
	switch s.Kind {
	case KindChaos:
		cfg, err := s.chaosConfig()
		if err != nil {
			return outcome{}, err
		}
		var o *obs.Observer
		if record {
			o = obs.New()
		} else {
			o = obs.NewHashOnly()
		}
		cfg.Options.Obs = o
		rep, err := chaos.Run(cfg)
		if err != nil {
			return outcome{}, err
		}
		out := outcome{
			v:       rep,
			fp:      fmt.Sprintf("elapsed=%dms job=%dms", rep.Elapsed.Milliseconds(), rep.JobDone.Milliseconds()),
			elapsed: rep.Elapsed,
		}
		if witness {
			out.full, out.hash = rep.Fingerprint(), o.Hash()
		}
		if record {
			out.trace = o
		}
		return out, nil
	case KindTable2:
		rows, err := bench.RunTable2(s.table2Config())
		if err != nil {
			return outcome{}, err
		}
		fp := fingerprintTable2(rows)
		var max time.Duration
		for _, r := range rows {
			if r.Latency > max {
				max = r.Latency
			}
		}
		return outcome{v: rows, fp: fp, hash: fnvHash(fp), elapsed: max}, nil
	case KindTable4:
		rep, err := bench.RunKnapsack(s.table4Config())
		if err != nil {
			return outcome{}, err
		}
		fp := fingerprintTable4(rep)
		return outcome{v: rep, fp: fp, hash: fnvHash(fp), elapsed: rep.SeqTime}, nil
	case KindMonitor:
		rep, err := bench.RunMonitor(s.monitorConfig(), nil)
		if err != nil {
			return outcome{}, err
		}
		return outcome{v: rep, fp: fingerprintMonitor(rep), hash: rep.Store.Hash(), elapsed: rep.Elapsed}, nil
	case KindGridFTP:
		pts, err := bench.RunTransfer(*s.GridFTP)
		if err != nil {
			return outcome{}, err
		}
		fp := fingerprintTransfer(pts)
		var max time.Duration
		for _, p := range pts {
			if p.Elapsed > max {
				max = p.Elapsed
			}
		}
		return outcome{v: pts, fp: fp, hash: fnvHash(fp), elapsed: max}, nil
	case KindGrid:
		cfg, err := s.gridConfig()
		if err != nil {
			return outcome{}, err
		}
		res, err := bench.RunGridKnapsack(cfg)
		if err != nil {
			return outcome{}, err
		}
		gr := &gridRun{items: cfg.Items, capacity: cfg.Capacity, res: res}
		// The hash of the kernel hash, trailing space included: the grammar
		// the committed grid rows were written in.
		hash := fnvHash(fmt.Sprintf("%016x ", res.TraceHash))
		return outcome{v: gr, fp: fingerprintGrid(res), hash: hash, elapsed: res.Elapsed}, nil
	case KindFleet:
		cfg := *s.Fleet
		e, err := fleet.New(cfg)
		if err != nil {
			return outcome{}, err
		}
		if err := e.Run(); err != nil {
			return outcome{}, err
		}
		res := e.Result()
		// The engine's own FNV fingerprint is the trace hash: it folds in
		// event counts, latency percentiles, and per-site completions.
		return outcome{v: &fleetRun{cfg: cfg, res: res}, fp: fingerprintFleet(res), hash: res.Fingerprint, elapsed: res.Makespan}, nil
	}
	return outcome{}, fmt.Errorf("unknown kind %q", s.Kind)
}

// divergence words the determinism failure of a double run, "" when the two
// runs agree: the first event the traces part at where the hash is a trace's,
// else the first fingerprint line that differs. rerun, nil for kinds whose
// hash is not a trace's, records the pair again when either run kept its
// trace as a hash alone; it runs on this failure path only.
func divergence(a, b *outcome, rerun func() (a, b *obs.Observer, err error)) string {
	switch {
	case a.hash != b.hash && a.trace != nil && b.trace != nil:
		return traceDivergence(a.trace, b.trace, a.hash, b.hash)
	case a.hash != b.hash && rerun != nil:
		ta, tb, err := rerun()
		if err != nil {
			return fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs; recording the pair again failed: %v",
				a.hash, b.hash, err)
		}
		return traceDivergence(ta, tb, a.hash, b.hash)
	case a.full != b.full:
		return fingerprintDivergence(a.full, b.full)
	case a.hash != b.hash:
		return fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs", a.hash, b.hash)
	}
	return ""
}

// traceDivergence names both hashes, then the first event the two recorded
// traces disagree on, as the JSONL line of each side. Traces that agree can
// only be a re-run's: the divergence did not reproduce.
func traceDivergence(a, b *obs.Observer, ha, hb uint64) string {
	n, la, lb := obs.FirstDiff(a, b)
	if n < 0 {
		return fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs; recorded again, the pair agreed (%016x): the divergence did not reproduce",
			ha, hb, a.Hash())
	}
	return fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs; first divergence at event %d: %s | %s",
		ha, hb, n, la, lb)
}

// recordPair runs a chaos spec's double run again, both runs recording, for
// divergence to compare event by event.
func (s *Spec) recordPair() (a, b *obs.Observer, err error) {
	var traces [2]*obs.Observer
	err = bench.RunParallel(len(traces), 0, func(i int) error {
		out, err := s.runOnce(true, true)
		traces[i] = out.trace
		return err
	})
	return traces[0], traces[1], err
}

// fingerprintDivergence names the first line the two fingerprints disagree
// on (one row, system or point of the sweep).
func fingerprintDivergence(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	i := 0
	for i < len(la) && i < len(lb) && la[i] == lb[i] {
		i++
	}
	line := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "<end>"
	}
	return fmt.Sprintf("determinism: results diverge at fingerprint line %d: %q vs %q", i+1, line(la), line(lb))
}

// --- canonical fingerprints ---
//
// Every float is rendered with strconv.FormatFloat(g, -1) — the shortest
// exact representation — so fingerprint equality is bit equality.

func ffloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func fnvHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

func fingerprintTable2(rows []bench.Table2Row) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s|%s|lat=%d", r.Path, r.Mode(), r.Latency.Nanoseconds())
		sizes := make([]int, 0, len(r.Bandwidth))
		for s := range r.Bandwidth {
			sizes = append(sizes, s)
		}
		sort.Ints(sizes)
		for _, s := range sizes {
			fmt.Fprintf(&b, "|bw%d=%s", s, ffloat(r.Bandwidth[s]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fingerprintTable4(rep *bench.KnapsackReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq=%d traversed=%d\n", rep.SeqTime.Nanoseconds(), rep.SeqTraversed)
	for _, r := range rep.Rows {
		fmt.Fprintf(&b, "%s|p=%d|exec=%d|speedup=%s", r.System, r.Processors, r.Exec.Nanoseconds(), ffloat(r.Speedup))
		if r.Result != nil {
			fmt.Fprintf(&b, "|best=%d|traversed=%d", r.Result.Best, r.Result.TotalTraversed)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fingerprintMonitor(rep *bench.MonitorReport) string {
	best := int64(-1)
	var traversed int64
	if rep.Result != nil {
		best = rep.Result.Best
		traversed = rep.Result.TotalTraversed
	}
	return fmt.Sprintf("elapsed=%d best=%d traversed=%d windows=%d series=%d store=%016x",
		rep.Elapsed.Nanoseconds(), best, traversed, rep.Store.Windows(), rep.Store.Len(), rep.Store.Hash())
}

func fingerprintTransfer(pts []bench.TransferPoint) string {
	var b strings.Builder
	for _, p := range pts {
		fmt.Fprintf(&b, "s=%d|loss=%s|bytes=%d|elapsed=%d|goodput=%s|drops=%d|rexmit=%d|cuts=%d\n",
			p.Streams, ffloat(p.LossRate), p.Bytes, p.Elapsed.Nanoseconds(), ffloat(p.Goodput),
			p.Drops, p.Retransmits, p.Cuts)
	}
	return b.String()
}

func fingerprintFleet(res fleet.Result) string {
	return fmt.Sprintf("jobs=%d hosts=%d events=%d makespan=%d p50=%d p99=%d max=%d queued=%d ticks=%d dir=%d fp=%016x",
		res.Jobs, res.Hosts, res.Events, res.Makespan.Nanoseconds(),
		res.P50Lat.Nanoseconds(), res.P99Lat.Nanoseconds(), res.MaxLat.Nanoseconds(),
		res.QueuedPeak, res.Ticks, res.DirEntries, res.Fingerprint)
}

func fingerprintGrid(res *bench.GridResult) string {
	return fmt.Sprintf("elapsed=%d best=%d traversed=%d trace=%016x",
		res.Elapsed.Nanoseconds(), res.Best, res.Traversed, res.TraceHash)
}
