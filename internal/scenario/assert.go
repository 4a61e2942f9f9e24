package scenario

import (
	"fmt"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/chaos"
	"nxcluster/internal/knapsack"
)

// check is one compiled assertion. Fn reads what the kind's run leaves in
// outcome.v (a *chaos.Report, []bench.Table2Row, *gridRun, ...).
type check struct {
	Name string
	Fn   func(v any) error
}

// buildAsserts validates every assert entry's name and argument for the
// spec's kind and returns the compiled checkers. Unknown names and
// ill-typed arguments error here, so `simulator validate` rejects them
// without running anything.
func buildAsserts(s *Spec) ([]check, error) {
	var out []check
	for i, a := range s.Asserts {
		c, err := compileCheck(s.Kind, a, fmt.Sprintf("scenario %s: assert[%d] %s", s.Name, i, a.Name))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// --- argument coercion ---

func argNone(a AssertSpec, path string) error {
	if a.Arg != nil {
		return fmt.Errorf("%s: takes no argument", path)
	}
	return nil
}

// arg coerces an assertion's argument through the decoder's one coercion
// (set), so it is typed and range-checked exactly as a block's key is.
func arg[T any](a AssertSpec, path string) (T, error) {
	var x T
	err := set(&x, a.Arg, path)
	return x, err
}

func argMinMax(a AssertSpec, path string) (min, max int, err error) {
	err = decode(a.Arg, path, table{{"min", &min}, {"max", &max}})
	return min, max, err
}

// --- chaos assertions ---

func chaosInvariant(a AssertSpec, path string) (chaos.Invariant, error) {
	var zero chaos.Invariant
	switch a.Name {
	case "exact-optimum":
		return chaos.ExactOptimum(), argNone(a, path)
	case "all-work-done":
		return chaos.AllWorkDone(), argNone(a, path)
	case "no-orphans":
		return chaos.NoOrphans(), argNone(a, path)
	case "no-rank-errors":
		return chaos.NoRankErrors(), argNone(a, path)
	case "registrations":
		min, max, err := argMinMax(a, path)
		if err != nil {
			return zero, err
		}
		return chaos.Registrations(min, max), nil
	case "suspect-periods":
		n, err := arg[int](a, path)
		if err != nil {
			return zero, err
		}
		return chaos.SuspectPeriods(n), nil
	case "job-completed":
		return chaos.JobCompleted(), argNone(a, path)
	case "job-off-host":
		h, err := arg[string](a, path)
		if err != nil {
			return zero, err
		}
		return chaos.JobOffHost(h), nil
	case "min-requeues":
		n, err := arg[int](a, path)
		if err != nil {
			return zero, err
		}
		return chaos.MinRequeues(n), nil
	case "max-requeues":
		n, err := arg[int](a, path)
		if err != nil {
			return zero, err
		}
		return chaos.MaxRequeues(n), nil
	case "min-speculations":
		n, err := arg[int](a, path)
		if err != nil {
			return zero, err
		}
		return chaos.MinSpeculations(n), nil
	case "elapsed-ceiling":
		d, err := arg[time.Duration](a, path)
		if err != nil {
			return zero, err
		}
		return chaos.ElapsedCeiling(d), nil
	case "hbm-all-up":
		return chaos.HBMAllUp(), argNone(a, path)
	case "hbm-suspects":
		n, err := arg[int](a, path)
		if err != nil {
			return zero, err
		}
		return chaos.HBMSuspectsSeen(int64(n)), nil
	case "hbm-no-downs":
		return chaos.HBMNoDowns(), argNone(a, path)
	case "extra-jobs-done":
		n, err := arg[int](a, path)
		if err != nil {
			return zero, err
		}
		return chaos.ExtraJobsDone(n), nil
	}
	return zero, fmt.Errorf("%s: unknown chaos assertion (one of: exact-optimum, all-work-done, no-orphans, no-rank-errors, registrations, suspect-periods, job-completed, job-off-host, min-requeues, max-requeues, min-speculations, elapsed-ceiling, hbm-all-up, hbm-suspects, hbm-no-downs, extra-jobs-done)", path)
}

// comparatorOf resolves a named baseline comparator for chaos scenarios.
func comparatorOf(name string) (func(rep, base *chaos.Report) error, error) {
	switch name {
	case "speculation-wins":
		// The mitigated run's job must finish strictly earlier than the
		// baseline's, with both keeping the exact optimum.
		return func(rep, base *chaos.Report) error {
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
		}, nil
	case "baseline-reregisters":
		// The baseline (without the mitigation) must have flapped through
		// at least one re-registration — proof the mitigation is load-bearing.
		return func(rep, base *chaos.Report) error {
			if base.InnerRegistrations < 2 {
				return fmt.Errorf("baseline without a miss budget re-registered %d times, want >= 2 (the budget should be what prevents the flap)", base.InnerRegistrations)
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unknown compare %q (one of: speculation-wins, baseline-reregisters)", name)
}

// --- per-kind assertions ---

func compileCheck(kind Kind, a AssertSpec, path string) (check, error) {
	var zero check
	switch kind {
	case KindChaos:
		inv, err := chaosInvariant(a, path)
		if err != nil {
			return zero, err
		}
		return check{inv.Name, func(v any) error { return inv.Check(v.(*chaos.Report)) }}, nil

	case KindTable2:
		switch a.Name {
		case "rows":
			n, err := arg[int](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				rows := v.([]bench.Table2Row)
				if len(rows) != n {
					return fmt.Errorf("rows = %d, want %d", len(rows), n)
				}
				return nil
			}}, nil
		case "indirect-slower":
			// Every proxied measurement must cost more latency than its
			// direct counterpart on the same path — the paper's Table 2
			// headline.
			return check{a.Name, func(v any) error {
				rows := v.([]bench.Table2Row)
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
			}}, argNone(a, path)
		}
		return zero, fmt.Errorf("%s: unknown table2 assertion (one of: rows, indirect-slower)", path)

	case KindTable4:
		switch a.Name {
		case "systems":
			n, err := arg[int](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				rep := v.(*bench.KnapsackReport)
				if len(rep.Rows) != n {
					return fmt.Errorf("systems = %d, want %d", len(rep.Rows), n)
				}
				return nil
			}}, nil
		case "proxy-overhead-max":
			f, err := arg[float64](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				rep := v.(*bench.KnapsackReport)
				if ov := rep.ProxyOverhead(); ov > f {
					return fmt.Errorf("proxy overhead %.4f > ceiling %.4f", ov, f)
				}
				return nil
			}}, nil
		case "exact-optimum":
			return check{a.Name, func(v any) error {
				rep := v.(*bench.KnapsackReport)
				want := knapsack.NormalizedBest(rep.Config.Items, rep.Config.Capacity)
				for _, row := range rep.Rows {
					if row.Result != nil && row.Result.Best != want {
						return fmt.Errorf("%s: best = %d, want %d", row.System, row.Result.Best, want)
					}
				}
				return nil
			}}, argNone(a, path)
		case "speedup-positive":
			return check{a.Name, func(v any) error {
				rep := v.(*bench.KnapsackReport)
				for _, row := range rep.Rows {
					if row.Speedup <= 0 {
						return fmt.Errorf("%s: speedup %.3f <= 0", row.System, row.Speedup)
					}
				}
				return nil
			}}, argNone(a, path)
		}
		return zero, fmt.Errorf("%s: unknown table4 assertion (one of: systems, proxy-overhead-max, exact-optimum, speedup-positive)", path)

	case KindMonitor:
		switch a.Name {
		case "min-windows":
			n, err := arg[int](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				rep := v.(*bench.MonitorReport)
				if rep.Store.Windows() < n {
					return fmt.Errorf("windows = %d, want >= %d", rep.Store.Windows(), n)
				}
				return nil
			}}, nil
		case "min-series":
			n, err := arg[int](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				rep := v.(*bench.MonitorReport)
				if rep.Store.Len() < n {
					return fmt.Errorf("series = %d, want >= %d", rep.Store.Len(), n)
				}
				return nil
			}}, nil
		case "exact-optimum":
			return check{a.Name, func(v any) error {
				rep := v.(*bench.MonitorReport)
				want := knapsack.NormalizedBest(rep.Config.Items, rep.Config.Capacity)
				if rep.Result == nil || rep.Result.Best != want {
					return fmt.Errorf("best = %v, want %d", resultBest(rep.Result), want)
				}
				return nil
			}}, argNone(a, path)
		}
		return zero, fmt.Errorf("%s: unknown monitor assertion (one of: min-windows, min-series, exact-optimum)", path)

	case KindGridFTP:
		switch a.Name {
		case "points":
			n, err := arg[int](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				pts := v.([]bench.TransferPoint)
				if len(pts) != n {
					return fmt.Errorf("points = %d, want %d", len(pts), n)
				}
				return nil
			}}, nil
		case "parallel-streams-win":
			// At the sweep's highest loss rate, the widest stream fan must
			// beat the single stream on goodput — GridFTP's raison d'être.
			return check{a.Name, func(v any) error {
				pts := v.([]bench.TransferPoint)
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
			}}, argNone(a, path)
		}
		return zero, fmt.Errorf("%s: unknown gridftp assertion (one of: points, parallel-streams-win)", path)

	case KindGrid:
		switch a.Name {
		case "exact-optimum":
			return check{a.Name, func(v any) error {
				gr := v.(*gridRun)
				want := knapsack.NormalizedBest(gr.items, gr.capacity)
				if gr.res.Best != want {
					return fmt.Errorf("best = %d, want %d", gr.res.Best, want)
				}
				return nil
			}}, argNone(a, path)
		case "all-work-done":
			return check{a.Name, func(v any) error {
				gr := v.(*gridRun)
				want := knapsack.NormalizedTreeNodes(gr.items, gr.capacity)
				if gr.res.Traversed < want {
					return fmt.Errorf("traversed %d < %d: work was lost", gr.res.Traversed, want)
				}
				return nil
			}}, argNone(a, path)
		case "elapsed-ceiling":
			d, err := arg[time.Duration](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				gr := v.(*gridRun)
				if gr.res.Elapsed > d {
					return fmt.Errorf("elapsed %v > ceiling %v", gr.res.Elapsed, d)
				}
				return nil
			}}, nil
		}
		return zero, fmt.Errorf("%s: unknown grid assertion (one of: exact-optimum, all-work-done, elapsed-ceiling)", path)

	case KindFleet:
		switch a.Name {
		case "all-jobs-done":
			return check{a.Name, func(v any) error {
				fr := v.(*bench.FleetReport)
				if fr.Result.Jobs != fr.Config.Jobs {
					return fmt.Errorf("completed %d of %d jobs", fr.Result.Jobs, fr.Config.Jobs)
				}
				return nil
			}}, argNone(a, path)
		case "p99-ceiling":
			d, err := arg[time.Duration](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				fr := v.(*bench.FleetReport)
				if fr.Result.P99Lat > d {
					return fmt.Errorf("p99 latency %v > ceiling %v", fr.Result.P99Lat, d)
				}
				return nil
			}}, nil
		case "max-queued":
			n, err := arg[int](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				fr := v.(*bench.FleetReport)
				if fr.Result.QueuedPeak > n {
					return fmt.Errorf("gateway queue peaked at %d, ceiling %d", fr.Result.QueuedPeak, n)
				}
				return nil
			}}, nil
		case "min-queued":
			// Overload scenarios assert the queues actually filled — proof
			// the flash crowd exceeded capacity rather than being absorbed.
			n, err := arg[int](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				fr := v.(*bench.FleetReport)
				if fr.Result.QueuedPeak < n {
					return fmt.Errorf("gateway queue peaked at %d, want >= %d", fr.Result.QueuedPeak, n)
				}
				return nil
			}}, nil
		case "min-events":
			n, err := arg[int](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				fr := v.(*bench.FleetReport)
				if fr.Result.Events < uint64(n) {
					return fmt.Errorf("kernel stamped %d events, want >= %d", fr.Result.Events, n)
				}
				return nil
			}}, nil
		case "makespan-ceiling":
			d, err := arg[time.Duration](a, path)
			if err != nil {
				return zero, err
			}
			return check{a.Name, func(v any) error {
				fr := v.(*bench.FleetReport)
				if fr.Result.Makespan > d {
					return fmt.Errorf("makespan %v > ceiling %v", fr.Result.Makespan, d)
				}
				return nil
			}}, nil
		}
		return zero, fmt.Errorf("%s: unknown fleet assertion (one of: all-jobs-done, p99-ceiling, max-queued, min-queued, min-events, makespan-ceiling)", path)
	}
	return zero, fmt.Errorf("%s: no assertions defined for kind %s", path, kind)
}

func resultBest(r *knapsack.Result) any {
	if r == nil {
		return "<no result>"
	}
	return r.Best
}
