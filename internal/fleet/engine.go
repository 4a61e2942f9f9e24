package fleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/hbm"
	"nxcluster/internal/mds"
	"nxcluster/internal/obs"
	"nxcluster/internal/rmf"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
)

// MaxFleetHosts bounds sites × hosts-per-site: past a million hosts the
// topology build alone dwarfs any experiment this repo runs, so the cap
// turns a typo'd scenario into a decode error instead of an OOM.
const MaxFleetHosts = 1 << 20

// msgBytes is the wire size charged for each control datagram (dispatch,
// completion): a small header-plus-payload packet.
const msgBytes = 256

// DefaultHeartbeat is the batched heartbeat / MDS publishing interval.
const DefaultHeartbeat = 10 * time.Second

// DefaultCPUsPerHost is the slot count stamped on each host when the config
// leaves CPUsPerHost at 0 (the paper's dual-CPU cluster nodes).
const DefaultCPUsPerHost = 2

// Config sizes and shapes one fleet run.
type Config struct {
	// Sites and HostsPerSite size the topology (cluster.NewFleet).
	Sites        int
	HostsPerSite int
	// CPUsPerHost is each host's slot count (default 2).
	CPUsPerHost int
	// Jobs is the total number of arrivals to generate.
	Jobs int
	// Seed drives every workload draw (default 1). The same seed always
	// produces the bit-identical run.
	Seed uint64
	// Arrivals is the λ(t) arrival process.
	Arrivals RateShape
	// Sizes is the job service-time distribution.
	Sizes SizeDist
	// Heartbeat is the batched beat + MDS publishing interval (default 10s).
	Heartbeat time.Duration
	// TraceSample, when > 0, opens a causal trace for every Nth job (1 =
	// every job). Requires Obs; sampling keeps 1M-job runs from holding a
	// span per job.
	TraceSample int
	// Obs, when non-nil, receives trace events (sampled job spans included).
	Obs *obs.Observer
}

// Validate reports a malformed configuration. The scenario DSL calls this
// during strict decode, so every message names the offending field.
func (c Config) Validate() error {
	if c.Sites < 1 {
		return fmt.Errorf("fleet: sites must be >= 1, got %d", c.Sites)
	}
	if c.HostsPerSite < 1 {
		return fmt.Errorf("fleet: hosts per site must be >= 1, got %d", c.HostsPerSite)
	}
	if int64(c.Sites)*int64(c.HostsPerSite) > MaxFleetHosts {
		return fmt.Errorf("fleet: %d sites x %d hosts = %d hosts exceeds the %d-host cap",
			c.Sites, c.HostsPerSite, int64(c.Sites)*int64(c.HostsPerSite), MaxFleetHosts)
	}
	if c.CPUsPerHost < 0 {
		return fmt.Errorf("fleet: cpus per host must be >= 0 (0 = default), got %d", c.CPUsPerHost)
	}
	if c.Jobs < 1 {
		return fmt.Errorf("fleet: jobs must be >= 1, got %d", c.Jobs)
	}
	if c.Heartbeat < 0 {
		return fmt.Errorf("fleet: heartbeat interval must be >= 0 (0 = default), got %v", c.Heartbeat)
	}
	if c.TraceSample < 0 {
		return fmt.Errorf("fleet: trace sample must be >= 0, got %d", c.TraceSample)
	}
	if err := c.Arrivals.Validate(); err != nil {
		return err
	}
	return c.Sizes.Validate()
}

// siteState is one site's control-plane state: the gateway the router
// addresses, the sharded allocator, and the FIFO overflow queue.
type siteState struct {
	gw    string
	hosts []string
	shard *rmf.Shard
	// FIFO overflow queue; qhead advances instead of shifting.
	queue []*job
	qhead int
	// outstanding is the router's (core-side) view: dispatches minus
	// completions seen back at the core. It is what placement balances on.
	outstanding int
	done        int
	// lastClass is each host's last-published state class (-1 = never), so
	// MDS publishing ships per-host rows only on change.
	lastClass []int8
	// The site's control paths, each resolved on first use (see send):
	// core->gateway, gateway->core, and per host gateway->host and
	// host->gateway.
	toGw, toCore *simnet.Path
	down, up     []*simnet.Path
}

func (s *siteState) queued() int { return len(s.queue) - s.qhead }

func (s *siteState) pushQueue(j *job) { s.queue = append(s.queue, j) }

func (s *siteState) popQueue() *job {
	if s.qhead == len(s.queue) {
		return nil
	}
	j := s.queue[s.qhead]
	s.queue[s.qhead] = nil
	s.qhead++
	if s.qhead == len(s.queue) {
		s.queue = s.queue[:0]
		s.qhead = 0
	}
	return j
}

// job is one unit of work moving through the fleet. Records are pooled and
// carry their delivery callbacks pre-bound, so the per-job steady state
// allocates nothing. A job also serves as its own service-completion event
// handler (sim.EventHandler).
type job struct {
	e       *Engine
	site    int
	host    int
	size    time.Duration
	arrived time.Duration
	tctx    obs.TraceContext

	// Delivery callbacks, bound once when the record is created.
	atGateway func()
	atHost    func()
	atGwDone  func()
	atCore    func()
}

// OnEvent fires when the job's service time elapses on its host: report
// completion one hop up to the site gateway.
func (j *job) OnEvent(k *sim.Kernel) {
	e := j.e
	s := &e.sites[j.site]
	e.send(&s.up[j.host], s.hosts[j.host], s.gw, j.atGwDone)
}

// Engine drives one fleet run on a dedicated kernel. All logic is
// event-style — there are no simulated processes — so kernel cost is a
// handful of events per job.
type Engine struct {
	cfg Config
	fl  *cluster.Fleet
	k   *sim.Kernel
	net *simnet.Network
	rng *RNG
	arr *Arrivals

	mon *hbm.Monitor
	dir *mds.Directory
	pub *mds.Publisher

	sites    []siteState
	freeJobs []*job

	submitted  int
	done       int
	queuedPeak int
	sumService int64 // ns
	sumLatency int64 // ns
	latencies  []int64
	doneAt     time.Duration
	ticks      int

	arrTick  tickArrival
	beatTick tickBeat
	// refreshNames is the reused per-tick buffer of unchanged host rows.
	refreshNames []string
	err          error
}

type tickArrival struct{ e *Engine }

func (t tickArrival) OnEvent(k *sim.Kernel) { t.e.arrive() }

type tickBeat struct{ e *Engine }

func (t tickBeat) OnEvent(k *sim.Kernel) { t.e.beat() }

// New validates cfg, builds the fleet topology, and arms the first arrival
// and heartbeat events. Call Run next.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CPUsPerHost == 0 {
		cfg.CPUsPerHost = DefaultCPUsPerHost
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	fl := cluster.NewFleet(cluster.FleetOptions{
		Sites:        cfg.Sites,
		HostsPerSite: cfg.HostsPerSite,
		CPUsPerHost:  cfg.CPUsPerHost,
		Seed:         cfg.Seed,
		Obs:          cfg.Obs,
	})
	e := &Engine{
		cfg: cfg, fl: fl, k: fl.K, net: fl.Net,
		rng:       NewRNG(cfg.Seed),
		mon:       hbm.NewMonitor(cfg.Heartbeat),
		dir:       mds.NewDirectory(),
		sites:     make([]siteState, cfg.Sites),
		latencies: make([]int64, 0, cfg.Jobs),
	}
	e.pub = mds.NewPublisher(e.dir, "ou=fleet, o=grid", 3*cfg.Heartbeat)
	e.arr = NewArrivals(cfg.Arrivals, e.rng)
	for s := range e.sites {
		st := &e.sites[s]
		st.gw = fl.Gateways[s]
		st.hosts = fl.Hosts[s]
		st.shard = rmf.NewUniformShard(cfg.HostsPerSite, cfg.CPUsPerHost)
		st.lastClass = make([]int8, cfg.HostsPerSite)
		st.down = make([]*simnet.Path, cfg.HostsPerSite)
		st.up = make([]*simnet.Path, cfg.HostsPerSite)
		for h := range st.lastClass {
			st.lastClass[h] = -1
		}
	}
	e.arrTick = tickArrival{e}
	e.beatTick = tickBeat{e}
	e.refreshNames = make([]string, 0, cfg.HostsPerSite*cfg.Sites)
	// Arm the first arrival (absolute instant from the rate process) and
	// the first heartbeat tick.
	e.k.AfterEvent(e.arr.Next(), e.arrTick)
	e.k.AfterEvent(cfg.Heartbeat, e.beatTick)
	return e, nil
}

// must records the first internal error (an unroutable message means the
// topology is broken) and surfaces it from Run.
func (e *Engine) must(err error) {
	if err != nil && e.err == nil {
		e.err = err
	}
}

// send ships a control datagram on the path cached in *p, resolving src->dst
// into it on first use so the per-message cost is no name or route lookup.
func (e *Engine) send(p **simnet.Path, src, dst string, deliver func()) {
	if *p == nil {
		r, err := e.net.Resolve(src, dst)
		if err != nil {
			e.must(err)
			return
		}
		*p = r
	}
	e.net.SendOn(*p, msgBytes, deliver)
}

// pickSite is power-of-two-choices over the router's outstanding counts:
// sample two sites, dispatch to the less loaded (ties to the lower index).
// O(1), fully local to the core router, and within a few percent of
// least-loaded at fleet scale.
func (e *Engine) pickSite() int {
	n := len(e.sites)
	if n == 1 {
		return 0
	}
	a := e.rng.Intn(n)
	b := e.rng.Intn(n)
	if a == b {
		return a
	}
	if b < a {
		a, b = b, a
	}
	if e.sites[b].outstanding < e.sites[a].outstanding {
		return b
	}
	return a
}

func (e *Engine) getJob() *job {
	if l := len(e.freeJobs); l > 0 {
		j := e.freeJobs[l-1]
		e.freeJobs[l-1] = nil
		e.freeJobs = e.freeJobs[:l-1]
		return j
	}
	j := &job{e: e}
	j.atGateway = j.gatewayArrive
	j.atHost = j.hostArrive
	j.atGwDone = j.gatewayDone
	j.atCore = j.coreDone
	return j
}

func (e *Engine) putJob(j *job) {
	j.tctx = obs.TraceContext{}
	e.freeJobs = append(e.freeJobs, j)
}

// arrive fires one open-loop arrival at the core router: draw the job,
// place it on a site, send the dispatch datagram, and arm the next arrival.
func (e *Engine) arrive() {
	now := e.k.Now()
	j := e.getJob()
	j.site = e.pickSite()
	j.size = e.cfg.Sizes.Sample(e.rng)
	j.arrived = now
	e.submitted++
	e.sumService += int64(j.size)
	if e.cfg.TraceSample > 0 && e.cfg.Obs != nil && (e.submitted-1)%e.cfg.TraceSample == 0 {
		j.tctx = e.cfg.Obs.BeginTrace(now, "fleet", "job", cluster.FleetSite(j.site))
	}
	s := &e.sites[j.site]
	s.outstanding++
	e.send(&s.toGw, cluster.FleetCore, s.gw, j.atGateway)
	if e.submitted < e.cfg.Jobs {
		e.k.AfterEvent(e.arr.Next()-now, e.arrTick)
	}
}

// gatewayArrive runs when the dispatch datagram reaches the site gateway:
// allocate a host slot from the shard, or queue FIFO when saturated.
func (j *job) gatewayArrive() {
	e := j.e
	s := &e.sites[j.site]
	host, ok := s.shard.Allocate()
	if !ok {
		s.pushQueue(j)
		if q := s.queued(); q > e.queuedPeak {
			e.queuedPeak = q
		}
		return
	}
	j.host = host
	e.send(&s.down[host], s.gw, s.hosts[host], j.atHost)
}

// hostArrive runs when the job lands on its host: hold the slot for the
// service time, then OnEvent reports back.
func (j *job) hostArrive() {
	j.e.k.AfterEvent(j.size, j)
}

// gatewayDone runs when the completion datagram reaches the gateway:
// release the slot, hand it straight to the queue head if one is waiting,
// and forward the completion to the core.
func (j *job) gatewayDone() {
	e := j.e
	s := &e.sites[j.site]
	s.shard.Release(j.host)
	if q := s.popQueue(); q != nil {
		host, ok := s.shard.Allocate()
		if ok {
			q.host = host
			e.send(&s.down[host], s.gw, s.hosts[host], q.atHost)
		} else {
			// Cannot happen (a slot was just released), but never drop work.
			s.queue = append(s.queue, nil)
			copy(s.queue[s.qhead+1:], s.queue[s.qhead:])
			s.queue[s.qhead] = q
		}
	}
	e.send(&s.toCore, s.gw, cluster.FleetCore, j.atCore)
}

// coreDone runs when the completion reaches the core router: account the
// job and recycle its record.
func (j *job) coreDone() {
	e := j.e
	now := e.k.Now()
	s := &e.sites[j.site]
	s.outstanding--
	s.done++
	e.done++
	lat := int64(now - j.arrived)
	e.sumLatency += lat
	e.latencies = append(e.latencies, lat)
	if j.tctx.Traced() {
		e.cfg.Obs.EndSpan(now, j.tctx, "fleet", "job", cluster.FleetSite(j.site))
	}
	e.putJob(j)
	if e.done == e.cfg.Jobs {
		e.doneAt = now
	}
}

// beat is the batched control-plane tick: every site coalesces its hosts
// into one BeatBatch (monitor cost scales with sites, not hosts) and MDS
// gets one aggregate row per site plus per-host rows only for hosts whose
// state class changed; unchanged rows are TTL-refreshed without rewriting.
func (e *Engine) beat() {
	now := e.k.Now()
	e.ticks++
	e.refreshNames = e.refreshNames[:0]
	var rows []mds.StatusRow
	for si := range e.sites {
		s := &e.sites[si]
		e.mon.BeatBatch(now, s.hosts)
		rows = append(rows, mds.StatusRow{
			Name: cluster.FleetSite(si),
			Attrs: map[string][]string{
				"objectclass": {"GridSite"},
				"hosts":       {itoa(len(s.hosts))},
				"running":     {itoa(s.shard.Running())},
				"queued":      {itoa(s.queued())},
				"done":        {itoa(s.done)},
			},
		})
		for h, name := range s.hosts {
			c := hostClass(s.shard, h)
			if c == s.lastClass[h] {
				e.refreshNames = append(e.refreshNames, name)
				continue
			}
			s.lastClass[h] = c
			rows = append(rows, mds.StatusRow{
				Name: name,
				Attrs: map[string][]string{
					"objectclass": {"GridHost"},
					"class":       {hostClassName(c)},
					"load":        {itoa(s.shard.Load(h))},
				},
			})
		}
	}
	e.pub.Publish(now, rows)
	e.pub.Refresh(now, e.refreshNames)
	if e.done < e.cfg.Jobs {
		e.k.AfterEvent(e.cfg.Heartbeat, e.beatTick)
	}
}

// hostClass buckets a host's load into idle / busy / full — the coarse
// classes per-host MDS deltas are keyed on.
func hostClass(s *rmf.Shard, h int) int8 {
	switch load := s.Load(h); {
	case load == 0:
		return 0
	case load < int(s.Cpus(h)):
		return 1
	default:
		return 2
	}
}

func hostClassName(c int8) string {
	switch c {
	case 0:
		return "idle"
	case 1:
		return "busy"
	default:
		return "full"
	}
}

// itoa keeps the tick loop terse.
func itoa(n int) string { return strconv.Itoa(n) }

// Run drives the simulation to completion and returns the first internal
// error, if any. After Run, Result summarizes the run.
func (e *Engine) Run() error {
	if err := e.k.Run(); err != nil {
		return err
	}
	if e.err != nil {
		return e.err
	}
	if e.done != e.cfg.Jobs {
		return fmt.Errorf("fleet: run drained with %d of %d jobs complete", e.done, e.cfg.Jobs)
	}
	return nil
}

// Kernel exposes the engine's kernel (events metric, shutdown).
func (e *Engine) Kernel() *sim.Kernel { return e.k }

// Fleet exposes the built topology.
func (e *Engine) Fleet() *cluster.Fleet { return e.fl }

// Monitor exposes the heartbeat monitor.
func (e *Engine) Monitor() *hbm.Monitor { return e.mon }

// Directory exposes the MDS directory the control plane publishes into.
func (e *Engine) Directory() *mds.Directory { return e.dir }

// Result is one completed run's summary. Every field is a pure function of
// the configuration (virtual-time metrics only — wall-clock throughput is
// the harness's to measure).
type Result struct {
	Jobs        int
	Sites       int
	Hosts       int
	Events      uint64        // kernel events stamped over the run
	Makespan    time.Duration // virtual time of the last completion
	MeanLat     time.Duration
	P50Lat      time.Duration
	P99Lat      time.Duration
	MaxLat      time.Duration
	QueuedPeak  int
	Ticks       int // heartbeat/publish ticks
	DirEntries  int // MDS directory size at the end
	Fingerprint uint64
}

// Result summarizes the run and computes its determinism fingerprint.
func (e *Engine) Result() Result {
	r := Result{
		Jobs:       e.done,
		Sites:      e.cfg.Sites,
		Hosts:      e.fl.TotalHosts(),
		Events:     e.k.Events(),
		Makespan:   e.doneAt,
		QueuedPeak: e.queuedPeak,
		Ticks:      e.ticks,
		DirEntries: e.dir.Len(),
	}
	if len(e.latencies) > 0 {
		sorted := append([]int64(nil), e.latencies...)
		slices.Sort(sorted)
		r.MeanLat = time.Duration(e.sumLatency / int64(len(sorted)))
		r.P50Lat = time.Duration(sorted[rank(50, len(sorted))])
		r.P99Lat = time.Duration(sorted[rank(99, len(sorted))])
		r.MaxLat = time.Duration(sorted[len(sorted)-1])
	}
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	word(uint64(e.submitted))
	word(uint64(e.done))
	word(uint64(e.sumService))
	word(uint64(e.sumLatency))
	word(uint64(e.doneAt))
	word(r.Events)
	word(uint64(r.QueuedPeak))
	word(uint64(r.DirEntries))
	word(uint64(e.mon.SuspectCount()))
	word(uint64(e.mon.DownCount()))
	word(uint64(r.P50Lat))
	word(uint64(r.P99Lat))
	word(uint64(r.MaxLat))
	for si := range e.sites {
		word(uint64(e.sites[si].done))
	}
	r.Fingerprint = h.Sum64()
	return r
}

// rank is the nearest-rank index for percentile p over n sorted samples.
func rank(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
