package scenario

import (
	"fmt"
	"strings"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/obs/causal"
	"nxcluster/internal/obs/timeseries"
)

// SLOSpec is a scenario's `slo:` block: service-level objectives evaluated
// deterministically against the span durations the run's observer folds
// (latency percentiles over span legs) and its time-series store (throughput floors and error budgets
// with burn-rate windows). Every objective counts as one invariant; a
// violated objective is a scenario failure exactly like a failed assertion.
//
// Only chaos and monitor scenarios may declare SLOs — they are the kinds
// that run with an observer attached. A chaos scenario with an SLO block
// additionally gets a kernel-scheduled sampler (window width slo.interval,
// default 1s), which reads metrics but never perturbs virtual-time results.
type SLOSpec struct {
	// Interval is the chaos sampler's window width (chaos kind only;
	// monitor scenarios window on workload.interval).
	Interval time.Duration

	Latency    []LatencySLO
	Throughput []ThroughputSLO
	Budgets    []ErrorBudgetSLO
}

// LatencySLO bounds a percentile of one causal leg's span durations.
type LatencySLO struct {
	// Leg is the span label "cat/name" (e.g. "rmf/job", "mpi/rank").
	Leg string
	// Percentile is the nearest-rank percentile in (0, 100].
	Percentile float64
	// Max is the ceiling the percentile must not exceed.
	Max time.Duration
	// MinCount guards against vacuous passes: the run must produce at least
	// this many completed spans of the leg (default 1).
	MinCount int
}

// ThroughputSLO floors the volume carried by one or more time series.
// Series supports '*' wildcards; matching series are summed.
type ThroughputSLO struct {
	Series string
	// MinTotal floors the summed Total() over the whole run.
	MinTotal int64
	// MinRate floors the average per-virtual-second rate over the run.
	MinRate float64
}

// ErrorBudgetSLO caps the errors counted by one or more rate series, in
// total (the budget) and optionally per burn-rate window (any rolling
// Window-sample sum exceeding MaxBurn is a violation even when the whole-run
// budget holds — a fast burn is an incident even if it stops early).
type ErrorBudgetSLO struct {
	Series string
	// Budget is the whole-run ceiling on the summed series total.
	Budget int64
	// Window is the burn-rate window width in samples (0 = no burn check).
	Window int
	// MaxBurn is the ceiling on any rolling Window-sample sum.
	MaxBurn int64
}

// Objectives reports how many objectives the block declares — each counts
// as one invariant in the scenario result.
func (sl *SLOSpec) Objectives() int {
	if sl == nil {
		return 0
	}
	return len(sl.Latency) + len(sl.Throughput) + len(sl.Budgets)
}

// legs lists the span labels the latency objectives judge: the legs the
// run's observer must fold (obs.NewHashOnly) for Evaluate to read.
func (sl *SLOSpec) legs() []string {
	if sl == nil {
		return nil
	}
	legs := make([]string, len(sl.Latency))
	for i, l := range sl.Latency {
		legs[i] = l.Leg
	}
	return legs
}

// Evaluate checks every objective against the run's observer, which folded
// the legs' span durations (see legs), and its time-series store, returning
// one failure string per violated objective. Evaluation is pure (no
// simulation, no clock), so it is trivially deterministic: the same run
// always yields the same verdict.
func (sl *SLOSpec) Evaluate(o *obs.Observer, store *timeseries.Store) []string {
	if sl == nil {
		return nil
	}
	var fails []string
	for _, l := range sl.Latency {
		if msg := l.check(o.Durations(l.Leg)); msg != "" {
			fails = append(fails, msg)
		}
	}
	for _, tp := range sl.Throughput {
		if msg := tp.check(store); msg != "" {
			fails = append(fails, msg)
		}
	}
	for _, eb := range sl.Budgets {
		if msg := eb.check(store); msg != "" {
			fails = append(fails, msg)
		}
	}
	return fails
}

func (l LatencySLO) check(durs []time.Duration) string {
	minCount := l.MinCount
	if minCount <= 0 {
		minCount = 1
	}
	if len(durs) < minCount {
		return fmt.Sprintf("slo latency %s: %d completed spans, want >= %d (objective is vacuous)",
			l.Leg, len(durs), minCount)
	}
	got := causal.Percentile(durs, l.Percentile)
	if got > l.Max {
		return fmt.Sprintf("slo latency %s: p%v = %v > max %v (%d spans)",
			l.Leg, l.Percentile, got, l.Max, len(durs))
	}
	return ""
}

// matchedSeries resolves a series pattern against the store, or returns an
// error message when the store is missing or nothing matches (an SLO against
// a series that does not exist must fail loudly, not pass vacuously).
func matchedSeries(store *timeseries.Store, pattern, what string) ([]*timeseries.Series, string) {
	if store == nil {
		return nil, fmt.Sprintf("slo %s %s: run produced no time-series store", what, pattern)
	}
	var out []*timeseries.Series
	for _, name := range store.Names() {
		if matchSeries(pattern, name) {
			out = append(out, store.Series(name))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Sprintf("slo %s %s: no series matches (store has %d series)", what, pattern, store.Len())
	}
	return out, ""
}

func (tp ThroughputSLO) check(store *timeseries.Store) string {
	matched, msg := matchedSeries(store, tp.Series, "throughput")
	if msg != "" {
		return msg
	}
	var total int64
	for _, s := range matched {
		total += s.Total()
	}
	if total < tp.MinTotal {
		return fmt.Sprintf("slo throughput %s: total %d < floor %d (%d series)",
			tp.Series, total, tp.MinTotal, len(matched))
	}
	if tp.MinRate > 0 {
		horizon := time.Duration(store.Windows()) * store.Interval
		if horizon <= 0 {
			return fmt.Sprintf("slo throughput %s: no completed sampling windows", tp.Series)
		}
		rate := float64(total) / horizon.Seconds()
		if rate < tp.MinRate {
			return fmt.Sprintf("slo throughput %s: rate %.4g/s < floor %.4g/s over %v",
				tp.Series, rate, tp.MinRate, horizon)
		}
	}
	return ""
}

func (eb ErrorBudgetSLO) check(store *timeseries.Store) string {
	matched, msg := matchedSeries(store, eb.Series, "error-budget")
	if msg != "" {
		return msg
	}
	// Sum the matched series per window so the burn check sees the combined
	// error stream, not each series in isolation.
	combined := make([]int64, store.Windows())
	var total int64
	for _, s := range matched {
		for i, v := range s.Values(store.Windows()) {
			combined[i] += v
			total += v
		}
	}
	if total > eb.Budget {
		return fmt.Sprintf("slo error-budget %s: total %d > budget %d over %d windows",
			eb.Series, total, eb.Budget, store.Windows())
	}
	if eb.Window > 0 {
		var burn int64
		for i, v := range combined {
			burn += v
			if i >= eb.Window {
				burn -= combined[i-eb.Window]
			}
			if burn > eb.MaxBurn {
				from := time.Duration(max(0, i-eb.Window+1)) * store.Interval
				to := time.Duration(i+1) * store.Interval
				return fmt.Sprintf("slo error-budget %s: burn %d > %d in the %d-window span [%v, %v)",
					eb.Series, burn, eb.MaxBurn, eb.Window, from, to)
			}
		}
	}
	return ""
}

// matchSeries matches name against pattern, where '*' matches any (possibly
// empty) run of characters.
func matchSeries(pattern, name string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == name
	}
	if !strings.HasPrefix(name, parts[0]) {
		return false
	}
	rest := name[len(parts[0]):]
	last := parts[len(parts)-1]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		i := strings.Index(rest, mid)
		if i < 0 {
			return false
		}
		rest = rest[i+len(mid):]
	}
	return strings.HasSuffix(rest, last)
}

// --- decoding ---

// decodeSLO decodes the `slo:` section. Structural and range validation
// happens here so `simulator validate` rejects a bad block without running
// anything.
func decodeSLO(v any, s *Spec) error {
	sl := &SLOSpec{}
	var latency, throughput, budgets []any
	if err := decode(v, "slo", table{
		{"interval", &sl.Interval},
		{"latency", &latency},
		{"throughput", &throughput},
		{"error_budget", &budgets},
	}); err != nil {
		return err
	}
	for i, e := range latency {
		var l LatencySLO
		path := fmt.Sprintf("slo.latency[%d]", i)
		if err := decode(e, path, table{
			{"leg", &l.Leg},
			{"percentile", &l.Percentile},
			{"max", &l.Max},
			{"min_count", &l.MinCount},
		}); err != nil {
			return err
		}
		if !strings.Contains(l.Leg, "/") {
			return fmt.Errorf("scenario: %s: leg must be a span label like \"rmf/job\", got %q", path, l.Leg)
		}
		if l.Percentile <= 0 || l.Percentile > 100 {
			return fmt.Errorf("scenario: %s: percentile %v outside (0, 100]", path, l.Percentile)
		}
		if l.Max <= 0 {
			return fmt.Errorf("scenario: %s: missing required key \"max\" (the latency ceiling)", path)
		}
		sl.Latency = append(sl.Latency, l)
	}
	for i, e := range throughput {
		var tp ThroughputSLO
		path := fmt.Sprintf("slo.throughput[%d]", i)
		if err := decode(e, path, table{
			{"series", &tp.Series},
			{"min_total", &tp.MinTotal},
			{"min_rate", &tp.MinRate},
		}); err != nil {
			return err
		}
		if tp.Series == "" {
			return fmt.Errorf("scenario: %s: missing required key \"series\"", path)
		}
		if tp.MinTotal <= 0 && tp.MinRate <= 0 {
			return fmt.Errorf("scenario: %s: needs a floor (\"min_total\" or \"min_rate\" > 0)", path)
		}
		sl.Throughput = append(sl.Throughput, tp)
	}
	for i, e := range budgets {
		var eb ErrorBudgetSLO
		var hasWindow, hasBurn bool
		path := fmt.Sprintf("slo.error_budget[%d]", i)
		if err := decode(e, path, table{
			{"series", &eb.Series},
			{"budget", &eb.Budget},
			{"window", present{&hasWindow, &eb.Window}},
			{"max_burn", present{&hasBurn, &eb.MaxBurn}},
		}); err != nil {
			return err
		}
		if eb.Series == "" {
			return fmt.Errorf("scenario: %s: missing required key \"series\"", path)
		}
		if hasWindow != hasBurn {
			return fmt.Errorf("scenario: %s: \"window\" and \"max_burn\" come together (a burn rate is errors per window)", path)
		}
		if hasWindow && eb.Window <= 0 {
			return fmt.Errorf("scenario: %s: window must be >= 1 sample, got %d", path, eb.Window)
		}
		sl.Budgets = append(sl.Budgets, eb)
	}
	if sl.Objectives() == 0 {
		return fmt.Errorf("scenario %s: slo block declares no objectives (latency, throughput, or error_budget)", s.Name)
	}
	s.SLO = sl
	return nil
}
