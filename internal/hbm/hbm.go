// Package hbm implements a Heartbeat Monitor in the mold of the Globus HBM
// service: long-running processes (gatekeepers, relay servers, Q servers)
// register with a monitor daemon and send periodic heartbeats; the monitor
// classifies each process as UP, LATE or DOWN from beat arrival times, and
// operators (or tests) query it for liveness. In a metacomputing testbed
// spanning firewalls this is how a site learns that a remote component died
// rather than merely stalled. Beats and queries are control calls on a
// session kept per caller host (nexus.Ask, nexus.ServeSession), so a
// reporter dials its monitor once, not once per beat.
package hbm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// ErrUnknown is returned for status queries on unregistered processes.
var ErrUnknown = errors.New("hbm: unknown process")

// Health is a monitored process's classification.
type Health int

// Health states: a process is UP while beats arrive on time, LATE once a
// beat is overdue by less than the grace period, and DOWN beyond it. With a
// SuspectWindow configured there is a fourth, gray state: SUSPECT marks a
// process that is degraded — still beating, but with gaps that would
// otherwise flap it DOWN and back UP — or freshly overdue past the DOWN
// threshold but inside the suspect window. Suspect is numbered after Down so
// the original three states keep their wire and gauge values.
const (
	Up Health = iota
	Late
	Down
	Suspect
)

// String renders the health state.
func (h Health) String() string {
	switch h {
	case Up:
		return "UP"
	case Late:
		return "LATE"
	case Suspect:
		return "SUSPECT"
	default:
		return "DOWN"
	}
}

// Wire ops.
const (
	opBeat       = int32(1) // fields: name (registers implicitly)
	opList       = int32(3)
	opDeregister = int32(4) // fields: name (graceful shutdown, not a death)
)

// record tracks one process. seen is the classification last observed (by a
// beat, status query, or snapshot) — the reference point for transition
// events; health is computed lazily, so a transition becomes visible only
// when something looks.
type record struct {
	name     string
	lastBeat time.Duration
	beats    int64
	seen     Health
	// degraded marks a process whose beats arrive with gaps past the DOWN
	// threshold: alive, but impaired. Set and cleared at beat arrival; only
	// meaningful when the monitor has a SuspectWindow.
	degraded bool
}

// Monitor is the heartbeat collector daemon.
type Monitor struct {
	transport.Bound
	// Interval is the expected beat period.
	Interval time.Duration
	// Grace is how far past the interval a beat may be before the process
	// is DOWN (default: 3x Interval).
	Grace time.Duration
	// LateAfter, when nonzero, overrides the UP->LATE threshold: a process
	// whose last beat is overdue by more than LateAfter is LATE. Zero
	// derives the threshold from Interval.
	LateAfter time.Duration
	// DownAfter, when nonzero, overrides the LATE->DOWN threshold. Zero
	// derives it from Interval+Grace.
	DownAfter time.Duration
	// SuspectWindow, when nonzero, enables gray-failure classification: a
	// process overdue past the DOWN threshold is held SUSPECT for
	// SuspectWindow before decaying to DOWN, and a process whose beats keep
	// arriving but with DOWN-sized gaps is SUSPECT (degraded) instead of
	// flapping DOWN -> UP on every beat. Zero preserves the original
	// three-state behavior exactly.
	SuspectWindow time.Duration

	mu    sync.Mutex
	procs map[string]*record
	obs   *obs.Observer // bound at Serve; nil when tracing is off
	// suspects/downs count transitions INTO the respective state — the
	// flap-vs-suspect evidence chaos invariants assert on.
	suspects int64
	downs    int64
}

// NewMonitor creates a monitor expecting beats every interval.
func NewMonitor(interval time.Duration) *Monitor {
	return &Monitor{
		Interval: interval,
		Grace:    3 * interval,
		procs:    make(map[string]*record),
	}
}

// beat records a heartbeat at the monitor's current time. With a
// SuspectWindow, beat gaps drive the degraded flag: a gap past the DOWN
// threshold marks the process degraded (it would have flapped DOWN between
// beats), and a gap back inside the LATE threshold clears it; gaps in
// between keep the previous verdict (hysteresis, so a borderline process
// doesn't oscillate).
func (m *Monitor) beat(name string, now time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.beatLocked(name, now)
}

// BeatBatch records one coalesced heartbeat for each named process at time
// now, equivalent to beating each name in order but under a single lock
// acquisition and without per-host wire traffic. Fleet-scale site gateways
// report all their hosts in one batch per interval, so monitor cost scales
// with the site count rather than the host count.
func (m *Monitor) BeatBatch(now time.Duration, names []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range names {
		m.beatLocked(name, now)
	}
}

// beatLocked is beat's body; callers hold m.mu.
func (m *Monitor) beatLocked(name string, now time.Duration) {
	r := m.procs[name]
	if r == nil {
		r = &record{name: name}
		m.procs[name] = r
	}
	if m.SuspectWindow > 0 && r.beats > 0 {
		late, down := m.thresholds()
		gap := now - r.lastBeat
		switch {
		case gap > down:
			r.degraded = true
		case gap <= late:
			r.degraded = false
		}
	}
	r.lastBeat = now
	r.beats++
	h := Up
	if m.SuspectWindow > 0 && r.degraded {
		h = Suspect
	}
	m.note(r, h, now)
}

// note records an observed classification, emitting a transition event when
// it differs from the last one seen. Callers hold m.mu.
func (m *Monitor) note(r *record, h Health, now time.Duration) {
	if h == r.seen {
		return
	}
	if o := m.obs; o != nil {
		o.Emit(now, "hbm", "transition", r.name,
			obs.Str("from", r.seen.String()), obs.Str("to", h.String()))
		o.Metrics().Counter("hbm.transitions").Add(1)
		// Per-process health level for the monitoring plane's state series
		// (Up=0, Late=1, Down=2, Suspect=3 — the Health enum order).
		o.Metrics().Gauge("hbm.state." + r.name).Set(int64(h))
	}
	switch h {
	case Suspect:
		m.suspects++
	case Down:
		m.downs++
	}
	r.seen = h
}

// SuspectCount reports how many transitions into SUSPECT the monitor has
// observed; DownCount the transitions into DOWN. A straggler under a
// SuspectWindow shows suspects > 0 with no DOWN churn, where the three-state
// monitor would have racked up DOWN -> UP flaps.
func (m *Monitor) SuspectCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suspects
}

// DownCount reports transitions into DOWN (see SuspectCount).
func (m *Monitor) DownCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.downs
}

// Status classifies a process at time now.
func (m *Monitor) Status(name string, now time.Duration) (Health, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.procs[name]
	if !ok {
		return Down, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	h := m.classify(r, now)
	m.note(r, h, now)
	return h, nil
}

// thresholds resolves the effective LATE and DOWN overdue cutoffs.
func (m *Monitor) thresholds() (late, down time.Duration) {
	late = m.LateAfter
	if late <= 0 {
		late = m.Interval
	}
	down = m.DownAfter
	if down <= 0 {
		down = m.Interval + m.Grace
	}
	return late, down
}

func (m *Monitor) classify(r *record, now time.Duration) Health {
	late, down := m.thresholds()
	overdue := now - r.lastBeat
	if sw := m.SuspectWindow; sw > 0 {
		if overdue > down+sw {
			return Down // silent past the suspect window: genuinely dead
		}
		if r.degraded || overdue > down {
			return Suspect
		}
	}
	switch {
	case overdue <= late:
		return Up
	case overdue <= down:
		return Late
	default:
		return Down
	}
}

// deregister removes a process from the monitor: a graceful shutdown is not
// a death, and keeping the record around would report a phantom DOWN.
func (m *Monitor) deregister(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.procs, name)
}

// Snapshot lists every process's health at time now, sorted by name.
func (m *Monitor) Snapshot(now time.Duration) map[string]Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Transition events fire in sorted name order so traces stay
	// deterministic (map iteration order is not).
	names := make([]string, 0, len(m.procs))
	for name := range m.procs {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]Health, len(m.procs))
	for _, name := range names {
		r := m.procs[name]
		h := m.classify(r, now)
		m.note(r, h, now)
		out[name] = h
	}
	return out
}

// Serve runs the monitor's wire protocol; it blocks its process.
func (m *Monitor) Serve(env transport.Env, port int, ready func(addr string)) error {
	m.obs = obs.From(env)
	return m.Listen(env, port, "hbm", "hbm:conn", ready, m.handle)
}

// handle serves one monitor session (nexus.ServeSession).
func (m *Monitor) handle(env transport.Env, c transport.Conn) {
	nexus.ServeSession(env, &m.Bound, c, "hbm", m.serve)
}

// serve answers one monitor request.
func (m *Monitor) serve(env transport.Env, op int32, req, resp *nexus.Buffer) {
	switch op {
	case opBeat:
		name, err := req.GetString()
		if err != nil || name == "" {
			nexus.PutStatus(resp, errors.New("hbm: bad beat"))
			break
		}
		m.beat(name, env.Now())
		resp.PutBool(true)
	case opDeregister:
		name, err := req.GetString()
		if err != nil || name == "" {
			nexus.PutStatus(resp, errors.New("hbm: bad deregister"))
			break
		}
		m.deregister(name)
		resp.PutBool(true)
	case opList:
		snap := m.Snapshot(env.Now())
		names := make([]string, 0, len(snap))
		for n := range snap {
			names = append(names, n)
		}
		sort.Strings(names)
		resp.PutBool(true)
		resp.PutInt32(int32(len(names)))
		for _, n := range names {
			resp.PutString(n)
			resp.PutInt32(int32(snap[n]))
		}
	default:
		nexus.PutStatus(resp, errors.New("hbm: unknown op"))
	}
}

// Beat sends one heartbeat for name to the monitor at addr.
func Beat(env transport.Env, addr, name string) error {
	req := nexus.NewBuffer()
	req.PutInt32(opBeat)
	req.PutString(name)
	_, err := nexus.Ask(env, "hbm", addr, req)
	return err
}

// Deregister removes name from the monitor at addr: the process is shutting
// down on purpose and should stop being reported at all, rather than decay
// to DOWN.
func Deregister(env transport.Env, addr, name string) error {
	req := nexus.NewBuffer()
	req.PutInt32(opDeregister)
	req.PutString(name)
	_, err := nexus.Ask(env, "hbm", addr, req)
	return err
}

// QueryAll asks the monitor for every process's health.
func QueryAll(env transport.Env, addr string) (map[string]Health, error) {
	req := nexus.NewBuffer()
	req.PutInt32(opList)
	resp, err := nexus.Ask(env, "hbm", addr, req)
	if err != nil {
		return nil, err
	}
	return decodeList(resp)
}

// decodeList decodes a list reply past its status: a count, then each
// process's name and health.
func decodeList(resp *nexus.Buffer) (map[string]Health, error) {
	n, err := resp.GetInt32()
	if err != nil {
		return nil, err
	}
	// Every entry costs at least its name's 4-byte length and its health.
	if n < 0 || int(n) > resp.Remaining()/8 {
		return nil, fmt.Errorf("hbm: malformed list reply: %d entries in %d bytes", n, resp.Remaining())
	}
	out := make(map[string]Health, n)
	for i := int32(0); i < n; i++ {
		name, e1 := resp.GetString()
		h, e2 := resp.GetInt32()
		if e1 != nil || e2 != nil {
			return nil, errors.New("hbm: malformed list reply")
		}
		out[name] = Health(h)
	}
	return out, nil
}

// Reporter periodically beats on behalf of a named process. Start launches
// the beat loop as a service process; Stop ends it gracefully (with a final
// deregister beat). A reporter whose host crashes stops without one.
type Reporter struct {
	// MonitorAddr is the monitor's "host:port".
	MonitorAddr string
	// Name identifies this process to the monitor.
	Name string
	// Interval between beats (use the monitor's).
	Interval time.Duration
	// BeatCost, when nonzero, models the local work of producing one beat
	// (collecting stats, serializing) as a Compute charge before each send.
	// On a slowed or contended host the charge stretches, beats arrive with
	// growing gaps, and a SuspectWindow-enabled monitor classifies the host
	// SUSPECT instead of flapping it DOWN/UP. Zero (the default) keeps the
	// loop compute-free and bit-identical to the original.
	BeatCost time.Duration

	stopped bool
	mu      sync.Mutex
}

// Start launches the beat loop.
func (r *Reporter) Start(env transport.Env) {
	env.SpawnService("hbm:reporter:"+r.Name, func(e transport.Env) {
		for {
			r.mu.Lock()
			stopped := r.stopped
			r.mu.Unlock()
			if stopped {
				_ = Deregister(e, r.MonitorAddr, r.Name) // best effort
				return
			}
			if r.BeatCost > 0 {
				e.Compute(r.BeatCost)
			}
			_ = Beat(e, r.MonitorAddr, r.Name) // best effort
			e.Sleep(r.Interval)
		}
	})
}

// Stop ends the beat loop after its current sleep; on its way out the loop
// sends a deregister beat so the monitor drops the record instead of letting
// it decay to DOWN.
func (r *Reporter) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}
