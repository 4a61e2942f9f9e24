// Package rmf implements RMF, the paper's Resource Manager beyond the
// Firewall (its reference [9], described in section 2): a job queuing
// system in the mold of LSF that can drive computing resources inside a
// firewall from a Globus gatekeeper running outside it.
//
// Three roles cooperate (paper Figure 2):
//
//   - a Q server runs on every computing resource inside the firewall and
//     executes submitted job processes;
//   - a resource allocator daemon runs inside the firewall, tracks the
//     resources, and selects the best ones for each request;
//   - a Q client is created by the job manager (outside the firewall, next
//     to the gatekeeper); it asks the allocator for resources and submits
//     the job to the chosen Q servers.
//
// The site firewall must permit the Q client's connections to the allocator
// and the Q servers — the paper calls this configuration out explicitly —
// which cluster.Testbed models by opening those registered ports.
//
// Because jobs in the simulation cannot be exec'ed binaries, a Registry maps
// executable names to Go functions; file input/output is staged through
// GASS URLs exactly as the paper describes.
package rmf

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"nxcluster/internal/hbm"
	"nxcluster/internal/mds"
	"nxcluster/internal/nexus"
	"nxcluster/internal/obs"
	"nxcluster/internal/transport"
)

// Well-known ports inside the site (must be opened on the firewall for the
// Q client, per the paper).
const (
	// AllocatorPort is the resource allocator's port.
	AllocatorPort = 7100
	// QServerPort is every Q server's port.
	QServerPort = 7101
)

// ErrNoResources is returned when the allocator cannot satisfy a request.
var ErrNoResources = errors.New("rmf: no resources available")

// ErrUnknownJob is returned for status queries on unknown job ids.
var ErrUnknownJob = errors.New("rmf: unknown job")

// State is a job's lifecycle state.
type State int

// Job states.
const (
	StatePending State = iota
	StateActive
	StateDone
	StateFailed
)

// ended reports whether the process will change state no more.
func (s State) ended() bool { return s == StateDone || s == StateFailed }

// String renders the state.
func (s State) String() string {
	switch s {
	case StatePending:
		return "PENDING"
	case StateActive:
		return "ACTIVE"
	case StateDone:
		return "DONE"
	default:
		return "FAILED"
	}
}

// JobContext is what a program receives when executed by a Q server.
type JobContext struct {
	// JobID is the Q server's identifier for this process.
	JobID string
	// Resource is the executing resource's name.
	Resource string
	// Args are the program arguments.
	Args []string
	// Env carries environment variables from the RSL (e.g. the Nexus Proxy
	// configuration).
	Env map[string]string
	// Stdin holds staged input file contents (empty if none).
	Stdin []byte
	// Stdout collects the program's output; the Q server publishes it to
	// the job's stdout URL on completion.
	Stdout bytes.Buffer
	// Trace is the exec span the Q server opened for this process (zero when
	// tracing is off or the submitter was untraced). Programs that open spans
	// of their own should parent them here.
	Trace obs.TraceContext
}

// Program is a simulated executable.
type Program func(env transport.Env, ctx *JobContext) error

// Registry maps executable names to programs.
type Registry struct {
	mu       sync.Mutex
	programs map[string]Program
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{programs: make(map[string]Program)} }

// Register binds an executable name.
func (r *Registry) Register(name string, p Program) {
	r.mu.Lock()
	r.programs[name] = p
	r.mu.Unlock()
}

// Lookup finds a program.
func (r *Registry) Lookup(name string) (Program, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.programs[name]
	return p, ok
}

// resourceInfo is the allocator's view of one Q server.
type resourceInfo struct {
	Name    string
	Addr    string // Q server "host:port"
	Cluster string
	CPUs    int
	Load    int        // outstanding allocated slots
	Health  hbm.Health // zero value Up: resources are eligible until proven dead
}

// Allocator is the resource allocator daemon.
//
// Resources get dense ids in registration order, and each sits in the indexed
// min-heap of its cluster, ordered by before: the next pick of a cluster is
// its heap's first id, and the next pick overall the best of the firsts. A
// slot therefore costs O(log resources) and no memory; everything that moves
// a resource's key (allocate, release, SetHealth, a re-Register) repairs the
// one heap it is in.
type Allocator struct {
	mu       sync.Mutex
	res      []resourceInfo     // by id
	ids      map[string]int32   // name -> id
	heaps    map[string][]int32 // cluster -> its ids in heap order; never empty
	pos      []int32            // id -> index in its cluster's heap
	listener transport.Listener
	trace    func(format string, args ...interface{})

	// mdsAddr and mdsBase, when set, make the allocator publish every
	// registered resource into the Grid Information Service so other tools
	// can discover the site's capacity (the Globus GRAM reporter role).
	mdsAddr string
	mdsBase string
	mdsErrs int
}

// NewAllocator creates an empty allocator.
func NewAllocator() *Allocator {
	return &Allocator{ids: make(map[string]int32), heaps: make(map[string][]int32)}
}

// SetTrace installs a tracing callback (used by the Figure 2 renderer).
func (a *Allocator) SetTrace(fn func(string, ...interface{})) { a.trace = fn }

// PublishTo makes the allocator mirror its resource table into the MDS at
// addr, under base (e.g. "ou=rwcp, o=grid"). Entries are written on
// registration and their load attribute updated on allocate/release.
func (a *Allocator) PublishTo(addr, base string) {
	a.mdsAddr, a.mdsBase = addr, base
}

// MDSErrors reports how many MDS publications failed (publishing is
// best-effort; allocation never blocks on the directory).
func (a *Allocator) MDSErrors() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.mdsErrs
}

// publish mirrors one resource into the MDS from a fresh process so a slow
// or absent directory never stalls the allocator protocol.
func (a *Allocator) publish(env transport.Env, r resourceInfo) {
	if a.mdsAddr == "" {
		return
	}
	addr, base := a.mdsAddr, a.mdsBase
	env.SpawnService("rmf-alloc:mds", func(e transport.Env) {
		dn := fmt.Sprintf("hn=%s, %s", r.Name, base)
		err := mds.Client{Addr: addr}.Add(e, dn, map[string][]string{
			"objectclass": {"resource"},
			"cluster":     {r.Cluster},
			"qserveraddr": {r.Addr},
			"cpus":        {strconv.Itoa(r.CPUs)},
			"load":        {strconv.Itoa(r.Load)},
		})
		if err != nil {
			a.mu.Lock()
			a.mdsErrs++
			a.mu.Unlock()
			a.tracef("allocator: mds publish %s failed: %v", r.Name, err)
		}
	})
}

func (a *Allocator) tracef(format string, args ...interface{}) {
	if a.trace != nil {
		a.trace(format, args...)
	}
}

// Register adds or updates a resource; cpus must be positive.
func (a *Allocator) Register(name, addr, cluster string, cpus int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	id, ok := a.ids[name]
	if ok {
		// A changed cluster moves it to another heap and a changed CPU count
		// moves it within one; taking it out and putting it back does both.
		a.remove(id)
		r := &a.res[id]
		r.Addr, r.Cluster, r.CPUs = addr, cluster, cpus
	} else {
		id = int32(len(a.res))
		a.ids[name] = id
		a.res = append(a.res, resourceInfo{Name: name, Addr: addr, Cluster: cluster, CPUs: cpus})
		a.pos = append(a.pos, 0)
	}
	h := append(a.heaps[cluster], id)
	a.heaps[cluster] = h
	a.pos[id] = int32(len(h) - 1)
	heapUp(a, h, a.pos, len(h)-1)
}

// remove takes id out of its cluster's heap.
func (a *Allocator) remove(id int32) {
	cluster := a.res[id].Cluster
	h := a.heaps[cluster]
	i, last := int(a.pos[id]), len(h)-1
	h[i] = h[last]
	a.pos[h[i]] = int32(i)
	h = h[:last]
	if last == 0 {
		delete(a.heaps, cluster)
		return
	}
	a.heaps[cluster] = h
	if i < last {
		a.fix(h[i])
	}
}

// fix restores heap order around id after its key changed.
func (a *Allocator) fix(id int32) {
	h := a.heaps[a.res[id].Cluster]
	heapUp(a, h, a.pos, int(a.pos[id]))
	heapDown(a, h, a.pos, int(a.pos[id]))
}

// before is the ranking: UP resources first and SUSPECT ones — degraded but
// usable, so a straggler only gets work when nothing healthy is registered —
// behind them, DOWN last (allocate never picks one); within a class the
// lower fractional load, which balances heterogeneous CPU counts; then the
// name. Loads compare by cross-multiplication, as Shard's do: with positive
// CPU counts load_x/cpus_x < load_y/cpus_y exactly when load_x*cpus_y <
// load_y*cpus_x, and two different fractions whose cross products stay below
// 2^52 never round to the same float64, so this is the order the float
// compare it replaced gave (DESIGN.md, "RMF: ranking and completion").
func (a *Allocator) before(x, y int32) bool {
	rx, ry := &a.res[x], &a.res[y]
	if cx, cy := healthClass(rx.Health), healthClass(ry.Health); cx != cy {
		return cx < cy
	}
	lx, ly := int64(rx.Load)*int64(ry.CPUs), int64(ry.Load)*int64(rx.CPUs)
	if lx != ly {
		return lx < ly
	}
	return rx.Name < ry.Name
}

func healthClass(h hbm.Health) int {
	switch h {
	case hbm.Suspect:
		return 1
	case hbm.Down:
		return 2
	}
	return 0
}

// next returns the id allocate picks next in cluster ("" = any), or -1 when
// no resource registered there is eligible.
func (a *Allocator) next(cluster string) int32 {
	best := int32(-1)
	if cluster != "" {
		if h := a.heaps[cluster]; len(h) > 0 {
			best = h[0]
		}
	} else {
		for _, h := range a.heaps {
			if best < 0 || a.before(h[0], best) {
				best = h[0]
			}
		}
	}
	if best >= 0 && a.res[best].Health == hbm.Down {
		return -1 // the heartbeat monitor declared every candidate dead
	}
	return best
}

// Resources lists registered resource names, sorted.
func (a *Allocator) Resources() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.res))
	for i := range a.res {
		out[i] = a.res[i].Name
	}
	sort.Strings(out)
	return out
}

// allocate selects count slots, least-loaded resources first (see before),
// incrementing their load. It returns one Q server address per slot. A
// resource has no capacity limit here: past its CPU count it is
// oversubscribed, and ErrNoResources means no eligible candidate at all.
func (a *Allocator) allocate(count int, cluster string) ([]string, []string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.next(cluster) < 0 {
		return nil, nil, ErrNoResources
	}
	names, addrs := make([]string, count), make([]string, count)
	for i := range names {
		r := &a.res[a.next(cluster)]
		r.Load++
		heapDown(a, a.heaps[r.Cluster], a.pos, 0)
		names[i], addrs[i] = r.Name, r.Addr
	}
	return names, addrs, nil
}

// release returns slots to resources.
func (a *Allocator) release(names []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, n := range names {
		if id, ok := a.ids[n]; ok && a.res[id].Load > 0 {
			a.res[id].Load--
			a.fix(id)
		}
	}
}

// Load reports a resource's outstanding slot count.
func (a *Allocator) Load(name string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id, ok := a.ids[name]; ok {
		return a.res[id].Load
	}
	return -1
}

// publishLoads refreshes the load attribute of the named resources in the
// MDS, deduplicated, best-effort.
func (a *Allocator) publishLoads(env transport.Env, names []string) {
	if a.mdsAddr == "" {
		return
	}
	seen := map[string]bool{}
	a.mu.Lock()
	var snaps []resourceInfo
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		if id, ok := a.ids[n]; ok {
			snaps = append(snaps, a.res[id])
		}
	}
	a.mu.Unlock()
	addr, base := a.mdsAddr, a.mdsBase
	for _, r := range snaps {
		r := r
		env.SpawnService("rmf-alloc:mds", func(e transport.Env) {
			dn := fmt.Sprintf("hn=%s, %s", r.Name, base)
			err := mds.Client{Addr: addr}.Modify(e, dn, map[string][]string{
				"load": {strconv.Itoa(r.Load)},
			})
			if err != nil {
				a.mu.Lock()
				a.mdsErrs++
				a.mu.Unlock()
			}
		})
	}
}

// Allocator wire ops.
const (
	opRegister = int32(1)
	opAlloc    = int32(2)
	opRelease  = int32(3)
)

// maxAllocSlots bounds one opAlloc. The count sizes the reply before a slot
// is picked, so a 12-byte request must not be able to ask for gigabytes; the
// widest job the paper runs has 20 processes.
const maxAllocSlots = 4096

// Serve runs the allocator protocol; it blocks its process.
func (a *Allocator) Serve(env transport.Env, port int, ready func(addr string)) error {
	l, err := env.Listen(port)
	if err != nil {
		return fmt.Errorf("rmf allocator: listen: %w", err)
	}
	a.listener = l
	if ready != nil {
		ready(l.Addr())
	}
	for {
		c, err := l.Accept(env)
		if err != nil {
			return nil
		}
		conn := c
		env.SpawnService("rmf-alloc:conn", func(e transport.Env) { a.handle(e, conn) })
	}
}

// Close shuts the listener down.
func (a *Allocator) Close(env transport.Env) {
	if a.listener != nil {
		_ = a.listener.Close(env)
	}
}

// noteLoads refreshes the per-resource load gauges the monitoring plane
// samples, after an allocate or release touched names. No-op when tracing
// is off.
func (a *Allocator) noteLoads(o *obs.Observer, names []string) {
	if o == nil {
		return
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			continue
		}
		seen[n] = true
		if l := a.Load(n); l >= 0 {
			o.Metrics().Gauge("rmf.load." + n).Set(int64(l))
		}
	}
}

func (a *Allocator) handle(env transport.Env, c transport.Conn) {
	defer c.Close(env)
	o := obs.From(env)
	st := transport.Stream{Env: env, Conn: c}
	req, err := nexus.ReadFrame(st, 0)
	if err != nil {
		return
	}
	op, err := req.GetInt32()
	if err != nil {
		return
	}
	resp := nexus.NewBuffer()
	switch op {
	case opRegister:
		name, e1 := req.GetString()
		addr, e2 := req.GetString()
		cluster, e3 := req.GetString()
		cpus, e4 := req.GetInt32()
		if e1 != nil || e2 != nil || e3 != nil || e4 != nil || cpus <= 0 {
			putErr(resp, fmt.Errorf("rmf: malformed register"))
			break
		}
		a.Register(name, addr, cluster, int(cpus))
		a.tracef("allocator: registered %s (%s, %d cpus) at %s", name, cluster, cpus, addr)
		a.publish(env, resourceInfo{Name: name, Addr: addr, Cluster: cluster, CPUs: int(cpus)})
		resp.PutBool(true)
	case opAlloc:
		count, e1 := req.GetInt32()
		cluster, e2 := req.GetString()
		if e1 != nil || e2 != nil || count <= 0 || count > maxAllocSlots {
			putErr(resp, fmt.Errorf("rmf: malformed alloc"))
			break
		}
		if o != nil {
			o.Metrics().Counter("rmf.alloc.requests").Add(1)
		}
		names, addrs, err := a.allocate(int(count), cluster)
		if err != nil {
			putErr(resp, err)
			break
		}
		a.tracef("allocator: selected %v for %d-process request", names, count)
		a.publishLoads(env, names)
		a.noteLoads(o, names)
		resp.PutBool(true)
		resp.PutInt32(int32(len(names)))
		for i := range names {
			resp.PutString(names[i])
			resp.PutString(addrs[i])
		}
	case opRelease:
		// Every name costs at least its 4-byte length prefix, so a count the
		// frame cannot hold is refused before it sizes an allocation.
		n, err := req.GetInt32()
		if err != nil || n < 0 || int(n) > req.Remaining()/4 {
			putErr(resp, fmt.Errorf("rmf: malformed release"))
			break
		}
		names := make([]string, n)
		for i := range names {
			if names[i], err = req.GetString(); err != nil {
				putErr(resp, err)
				break
			}
		}
		if err == nil {
			a.release(names)
			a.publishLoads(env, names)
			a.noteLoads(o, names)
			resp.PutBool(true)
		}
	default:
		putErr(resp, fmt.Errorf("rmf: unknown allocator op %d", op))
	}
	_ = nexus.WriteFrame(st, resp)
}

func putErr(b *nexus.Buffer, err error) {
	b.PutBool(false)
	b.PutString(err.Error())
}
