package obs

import "sort"

// Metrics is an ordered registry of counters and gauges.
// Instruments are looked up once (at wiring time, typically when a link or
// connection is created) and the returned handle is cached by the caller;
// updates through a handle are a field increment — no map lookups, no
// allocation. All handle methods are nil-receiver-safe so a disabled
// observer hands back nil handles and the update sites need no guards.
type Metrics struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// Counter is a monotonically increasing count (bytes, retries, requeues).
type Counter struct {
	name string
	v    int64
}

// Add increments the counter. No-op on a nil handle.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instantaneous level with a high-water mark (queue depth,
// relay buffer occupancy).
type Gauge struct {
	name string
	v    int64
	max  int64
}

// Set records the current level and updates the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add shifts the level by delta (use +1/-1 around enqueue/dequeue).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.Set(g.v + delta)
}

// Value reads the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max reads the high-water mark (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Counter returns the named counter, creating it on first use. Nil-safe:
// a nil registry returns a nil handle.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	if c, ok := m.counters[name]; ok {
		return c
	}
	if m.counters == nil {
		m.counters = make(map[string]*Counter)
	}
	c := &Counter{name: name}
	m.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	if g, ok := m.gauges[name]; ok {
		return g
	}
	if m.gauges == nil {
		m.gauges = make(map[string]*Gauge)
	}
	g := &Gauge{name: name}
	m.gauges[name] = g
	return g
}

// Instrument kind tags for Snapshot rows.
const (
	KindCounter = byte('c')
	KindGauge   = byte('g')
)

// SnapshotRow is one instrument's current reading: a counter's cumulative
// value or a gauge's level.
type SnapshotRow struct {
	Kind  byte
	Name  string
	Value int64
}

// Snapshot appends every instrument's current reading to buf (counters, then
// gauges, each group sorted by name) and returns the result.
// Passing the previous call's buf[:0] makes periodic sampling — the
// time-series layer calls this once per window — allocation-light. The order
// is deterministic, so samplers driven from kernel context stay reproducible.
func (m *Metrics) Snapshot(buf []SnapshotRow) []SnapshotRow {
	if m == nil {
		return buf
	}
	names := make([]string, 0, len(m.counters))
	for n := range m.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		buf = append(buf, SnapshotRow{Kind: KindCounter, Name: n, Value: m.counters[n].v})
	}
	names = names[:0]
	for n := range m.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		buf = append(buf, SnapshotRow{Kind: KindGauge, Name: n, Value: m.gauges[n].v})
	}
	return buf
}
