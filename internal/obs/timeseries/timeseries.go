// Package timeseries is the live-monitoring layer on top of internal/obs: a
// deterministic, virtual-time time-series store fed by a kernel-scheduled
// sampler. Where obs records flat cumulative counters and post-hoc traces,
// this package turns them into fixed-interval windowed series — per-window
// deltas of every counter (rates), window-end levels of every gauge, plus
// caller-registered derived probes
// (utilization, queue depths computed from subsystem state).
//
// Determinism is the same contract the rest of the repo pins: the sampler
// runs inside its kernel's event loop (an After callback, never a process),
// it only reads state, and it sweeps the metric registry in sorted order. A
// monitored run therefore produces bit-identical samples regardless of
// GOMAXPROCS or how many independent simulations share the host — and
// attaching a sampler never changes the workload's own virtual-time results,
// because sampling schedules no work and consumes no simulated CPU or
// network.
package timeseries

import (
	"sort"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/sim"
)

// Kind classifies how a series' samples were produced.
type Kind uint8

// Series kinds.
const (
	// KindGauge samples are instantaneous levels read at each window's end.
	KindGauge Kind = iota
	// KindRate samples are deltas of a cumulative counter per window.
	KindRate
)

// String renders the kind for export.
func (k Kind) String() string {
	if k == KindRate {
		return "rate"
	}
	return "gauge"
}

// Series is one named timeline: a sample per completed window since the
// series first appeared. Instruments created mid-run (a link that only sees
// traffic late, a relay gauge bound on first connection) start at a nonzero
// window; Values pads the missing prefix with zeros so all series align.
type Series struct {
	// Name is the instrument name (e.g. "link.rwcp-outer>etl-gw.bytes").
	Name string
	// Kind says whether samples are window deltas or window-end levels.
	Kind Kind
	// Start is the index of the first window the series existed in.
	Start int

	samples []int64
	cum     int64 // last cumulative reading (rate series)
}

// Values returns the series padded with leading zeros to exactly windows
// samples. The returned slice aliases internal storage beyond the pad;
// callers must not mutate it.
func (s *Series) Values(windows int) []int64 {
	if s.Start == 0 {
		return s.samples[:min(windows, len(s.samples))]
	}
	out := make([]int64, 0, windows)
	for i := 0; i < s.Start && i < windows; i++ {
		out = append(out, 0)
	}
	n := windows - s.Start
	if n > len(s.samples) {
		n = len(s.samples)
	}
	return append(out, s.samples[:n]...)
}

// Last returns the most recent sample (0 when empty).
func (s *Series) Last() int64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.samples[len(s.samples)-1]
}

// Max returns the largest sample (0 when empty or all-negative).
func (s *Series) Max() int64 {
	var m int64
	for _, v := range s.samples {
		if v > m {
			m = v
		}
	}
	return m
}

// Total returns the sum of all samples: for a rate series, the cumulative
// counter value at the last completed window.
func (s *Series) Total() int64 {
	var t int64
	for _, v := range s.samples {
		t += v
	}
	return t
}

// Store holds a run's series, all sharing one sampling interval and window
// sequence.
type Store struct {
	// Interval is the virtual-time width of every window.
	Interval time.Duration

	windows int
	series  map[string]*Series
	order   []string
}

// NewStore creates an empty store with the given window width.
func NewStore(interval time.Duration) *Store {
	return &Store{Interval: interval, series: make(map[string]*Series)}
}

// Windows reports the number of completed windows.
func (st *Store) Windows() int { return st.windows }

// Len reports the number of series.
func (st *Store) Len() int { return len(st.series) }

// Series returns the named series, or nil.
func (st *Store) Series(name string) *Series { return st.series[name] }

// Names returns every series name, sorted.
func (st *Store) Names() []string {
	out := append([]string(nil), st.order...)
	sort.Strings(out)
	return out
}

// get returns the named series, creating it at the current window on first
// use.
func (st *Store) get(name string, kind Kind) *Series {
	s := st.series[name]
	if s == nil {
		s = &Series{Name: name, Kind: kind, Start: st.windows}
		st.series[name] = s
		st.order = append(st.order, name)
	}
	return s
}

// recordLevel appends a gauge reading for the closing window.
func (st *Store) recordLevel(name string, v int64) {
	s := st.get(name, KindGauge)
	s.samples = append(s.samples, v)
}

// recordCum appends the delta since the previous reading of a cumulative
// counter.
func (st *Store) recordCum(name string, cum int64) {
	s := st.get(name, KindRate)
	s.samples = append(s.samples, cum-s.cum)
	s.cum = cum
}

// Sampler drives a Store from a simulation kernel: every Interval of virtual
// time it sweeps the bound metric registry and its registered probes, closes
// one window, and invokes any OnSample hooks (the MDS status publisher).
// It stops itself once no non-daemon work remains, so kernels driven with
// Run still terminate.
type Sampler struct {
	// KeepAlive keeps the sampler ticking even with no live processes, for
	// simulations driven by RunUntil (chaos horizons, long-running services).
	KeepAlive bool

	k       *sim.Kernel
	store   *Store
	metrics *obs.Metrics
	probes  []probe
	hooks   []func(at time.Duration)
	snap    []obs.SnapshotRow
	stopped bool
}

type probe struct {
	name string
	kind Kind
	fn   func() int64
}

// NewSampler binds a sampler to kernel k, sampling m (which may be nil when
// only probes matter) every interval. Call Start to begin ticking.
func NewSampler(k *sim.Kernel, interval time.Duration, m *obs.Metrics) *Sampler {
	return &Sampler{k: k, store: NewStore(interval), metrics: m}
}

// Store returns the sampler's store.
func (s *Sampler) Store() *Store { return s.store }

// Probe registers a derived series read by fn at every tick, in registration
// order, after the metric registry sweep. fn runs in kernel context and must
// only read state.
func (s *Sampler) Probe(name string, kind Kind, fn func() int64) {
	s.probes = append(s.probes, probe{name: name, kind: kind, fn: fn})
}

// OnSample registers a hook invoked after each window closes (in kernel
// context, after all series recorded their samples). The MDS publisher
// attaches here so directory state always matches the latest window.
func (s *Sampler) OnSample(fn func(at time.Duration)) {
	s.hooks = append(s.hooks, fn)
}

// Start schedules the first tick one interval from now. It must be called
// from kernel context or before the kernel runs.
func (s *Sampler) Start() {
	s.k.After(s.store.Interval, s.tick)
}

// Stop ends sampling after the current window.
func (s *Sampler) Stop() { s.stopped = true }

func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	s.sample()
	// The final tick after the workload exits still samples (capturing the
	// tail window) and then lets the kernel drain.
	if !s.KeepAlive && s.k.Live() == 0 {
		s.stopped = true
		return
	}
	s.k.After(s.store.Interval, s.tick)
}

// sample closes one window: sweep the registry, run the probes, bump the
// window count, fire the hooks.
func (s *Sampler) sample() {
	s.snap = s.metrics.Snapshot(s.snap[:0])
	for i := range s.snap {
		r := &s.snap[i]
		switch r.Kind {
		case obs.KindGauge:
			s.store.recordLevel(r.Name, r.Value)
		default: // counters are cumulative
			s.store.recordCum(r.Name, r.Value)
		}
	}
	for _, p := range s.probes {
		if p.kind == KindGauge {
			s.store.recordLevel(p.name, p.fn())
		} else {
			s.store.recordCum(p.name, p.fn())
		}
	}
	s.store.windows++
	at := s.k.Now()
	for _, fn := range s.hooks {
		fn(at)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
