// Package simnet is a deterministic virtual network running on the
// discrete-event kernel in internal/sim. It models the paper's testbed:
// hosts and routers joined by duplex links with latency and bandwidth
// (100Base-T LANs, the 1.5 Mbps IMnet WAN), site firewalls at gateways, and
// reliable byte-stream connections with store-and-forward segmentation.
//
// simnet implements the transport.Env contract, so the exact protocol code
// that runs on real TCP (the Nexus Proxy relay, Nexus, GRAM, RMF, MPI) runs
// unmodified inside the simulation, where the wide-area experiments execute
// in virtual time on a single core.
//
// # Timing model
//
// A stream write is segmented into MTU-sized segments. Each directed link
// has a FIFO pump: a segment occupies the link for size/bandwidth
// (serialization), then arrives after the link's propagation latency,
// overlapped with the serialization of the next segment. Multi-hop paths
// therefore pipeline naturally, which is exactly the mechanism behind the
// paper's observation that proxy overhead fades as message size grows.
// Connection setup costs one round trip along the path. A per-connection
// sliding window (default 256 KiB) bounds in-flight bytes; window credit is
// returned when a segment reaches the receiver's buffer.
package simnet

import (
	"fmt"
	"time"

	"nxcluster/internal/firewall"
	"nxcluster/internal/obs"
	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// DefaultMTU is the segment size streams are chopped into.
const DefaultMTU = 4096

// DefaultWindow is the per-connection in-flight byte limit.
const DefaultWindow = 256 * 1024

// ctlSize models the wire size of SYN/ACK/FIN control packets.
const ctlSize = 64

// LinkConfig describes one duplex link.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is bytes per second in each direction; 0 means unlimited.
	Bandwidth int64
	// LossRate is the per-segment drop probability (each direction) applied
	// to data segments of flow-modeled connections crossing this link. The
	// draw is seeded and deterministic. No effect unless EnableFlowModel has
	// been called.
	LossRate float64
	// QueueLimit, when > 0, tail-drops a flow-modeled data segment that
	// arrives while QueueLimit transfers are already waiting on the link.
	// No effect unless EnableFlowModel has been called.
	QueueLimit int
}

// Network is a virtual network bound to a simulation kernel.
type Network struct {
	K   *sim.Kernel
	MTU int
	// Obs, when non-nil, receives virtual-time trace events and metrics for
	// every link hop, connection handshake, and stall. It must be set before
	// traffic flows and belongs to this network's kernel alone. Nil (the
	// default) keeps the data plane allocation-free: every emission site
	// guards on the nil check before building an event.
	Obs   *obs.Observer
	nodes map[string]*Node
	// order lists the nodes as they were added; orient roots each component
	// at its first-added node, so the tree and a refused cycle's report do
	// not depend on map order.
	order []*Node
	// routes caches computed paths. The key is the node-pointer pair so a
	// cache hit — every data- and control-plane send after the first — does
	// not allocate a concatenated string key. A topology change sets it to
	// nil, and the next route orients the tree again; cycle is what that
	// orientation refused, if anything.
	routes    map[routeKey]*Path
	cycle     error
	firewalls map[string]*firewall.Firewall
	nextConn  int
	// Free lists for the data plane: in-flight transfer records and
	// MTU-capacity segment buffers are recycled per network, so the
	// steady-state per-segment cost is allocation-free. Networks are
	// single-kernel objects, so the pools need no locking.
	freeTr  []*transfer
	freeSeg [][]byte
	// freeSlices recycles ComputeEach's per-call wakeup steps.
	freeSlices []*computeSlice
	// sessions holds the idle client sessions dialed on this network (see
	// transport.SessionsOf); one per network, so none crosses kernels.
	sessions transport.Sessions

	// TCP-Reno flow model (see flow.go); off by default, and when off the
	// data plane behaves bit-identically to a network built before the model
	// existed.
	flowOn      bool
	lossSeed    uint64
	flowDrops   int64
	flowRetrans int64
	flowCuts    int64
}

// Pool bounds: past these, records are left to the garbage collector.
const (
	maxTransferPool = 4096
	maxSegPool      = 1024
)

// New creates an empty network on kernel k.
func New(k *sim.Kernel) *Network {
	return &Network{
		K:         k,
		MTU:       DefaultMTU,
		nodes:     make(map[string]*Node),
		firewalls: make(map[string]*firewall.Firewall),
	}
}

// Node is a host or router in the network. Hosts can bind listeners, dial,
// and run processes; routers only forward.
type Node struct {
	net       *Network
	name      string
	site      string
	isHost    bool
	speed     float64
	baseSpeed float64 // configured speed; SetHostSpeed scales speed off this
	cpus      *sim.Semaphore
	cpuCount  int
	links     []*linkDir
	listeners map[int]*listener
	nextPort  int
	// Tree orientation (see orient): up is the link toward the parent (nil
	// at a root), root the component's root, depth the hops below it.
	up    *linkDir
	root  *Node
	depth int

	// Crash/restart state: every process spawned on the host and every open
	// connection endpoint is tracked so CrashHost can take them down, and
	// restart hooks rebuild the host's daemons after RestartHost.
	crashed      bool
	procs        map[int]*sim.Proc
	conns        map[*conn]struct{}
	restartHooks []restartHook
}

// restartHook is a boot script re-run after RestartHost (e.g. respawning a
// Q server daemon), named for trace attribution.
type restartHook struct {
	name string
	fn   func(transport.Env)
}

// HostConfig describes a host's compute capability.
type HostConfig struct {
	// Site groups the host behind its site firewall ("" = no site).
	Site string
	// Speed is the relative CPU speed factor (1.0 = nominal).
	Speed float64
	// CPUs is the processor count (default 1).
	CPUs int
}

// AddHost creates a host node.
func (n *Network) AddHost(name string, cfg HostConfig) *Node {
	if cfg.Speed <= 0 {
		cfg.Speed = 1.0
	}
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	node := &Node{
		net:       n,
		name:      name,
		site:      cfg.Site,
		isHost:    true,
		speed:     cfg.Speed,
		baseSpeed: cfg.Speed,
		cpus:      sim.NewSemaphore(n.K, cfg.CPUs),
		cpuCount:  cfg.CPUs,
		listeners: make(map[int]*listener),
		nextPort:  32768,
		procs:     make(map[int]*sim.Proc),
		conns:     make(map[*conn]struct{}),
	}
	n.addNode(node)
	return node
}

// AddRouter creates a forwarding-only node (a gateway or switch).
func (n *Network) AddRouter(name, site string) *Node {
	node := &Node{net: n, name: name, site: site}
	n.addNode(node)
	return node
}

func (n *Network) addNode(node *Node) {
	if _, dup := n.nodes[node.name]; dup {
		panic(fmt.Sprintf("simnet: duplicate node %q", node.name))
	}
	n.nodes[node.name] = node
	n.order = append(n.order, node)
	n.routes = nil
}

// Node returns the named node, or nil.
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// Name returns the node's name.
func (nd *Node) Name() string { return nd.name }

// Site returns the node's site.
func (nd *Node) Site() string { return nd.site }

// Speed returns the host's relative CPU speed.
func (nd *Node) Speed() float64 { return nd.speed }

// SetFirewall installs fw as the filter for every boundary crossing into or
// out of the named site.
func (n *Network) SetFirewall(site string, fw *firewall.Firewall) {
	n.firewalls[site] = fw
}

// Firewall returns the site's firewall, or nil.
func (n *Network) Firewall(site string) *firewall.Firewall { return n.firewalls[site] }

// Connect joins nodes a and b with a duplex link.
func (n *Network) Connect(a, b string, cfg LinkConfig) {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		panic(fmt.Sprintf("simnet: Connect(%q, %q): unknown node", a, b))
	}
	lane := n.K.Lane(cfg.Latency)
	ab := &linkDir{net: n, from: na, to: nb, cfg: cfg, lane: lane, label: a + ">" + b}
	ba := &linkDir{net: n, from: nb, to: na, cfg: cfg, lane: lane, label: b + ">" + a}
	ab.rev, ba.rev = ba, ab
	na.links = append(na.links, ab)
	nb.links = append(nb.links, ba)
	n.routes = nil
}

// Path is a resolved route: the directed links from one node to another, in
// order. Sending on a held Path skips the name and route-cache lookups a
// SendMessage pays; it stays valid until the topology changes (a node or
// link added).
type Path struct{ links []*linkDir }

// route returns (with caching) the path between two nodes; nil when they
// are in different components. Topologies are trees — each site behind one
// gateway, the sites joined at the core — so the path is the unique one
// through the nodes' lowest common ancestor. A topology with a cycle is
// refused: every route then fails with the error naming the closing link.
func (n *Network) route(src, dst *Node) (*Path, error) {
	key := routeKey{src, dst}
	if p, ok := n.routes[key]; ok {
		return p, nil
	}
	if n.routes == nil {
		n.cycle = n.orient()
		n.routes = make(map[routeKey]*Path)
	}
	if n.cycle != nil {
		return nil, n.cycle
	}
	var p *Path
	if src.root == dst.root {
		p = &Path{treePath(src, dst)}
	}
	n.routes[key] = p
	return p, nil
}

// routeKey identifies a cached path by its endpoint nodes.
type routeKey struct{ src, dst *Node }

// orient roots every component at its first-added node and records each
// node's up link, root and depth by breadth-first search. A link that
// reaches an already visited node other than over the link just climbed
// closes a cycle (a loop, a doubled link or a ring), and orient refuses the
// topology naming it.
func (n *Network) orient() error {
	for _, nd := range n.order {
		nd.up, nd.root, nd.depth = nil, nil, 0
	}
	queue := make([]*Node, 0, len(n.order))
	for _, r := range n.order {
		if r.root != nil {
			continue
		}
		r.root = r
		queue = append(queue[:0], r)
		for i := 0; i < len(queue); i++ {
			nd := queue[i]
			for _, ld := range nd.links {
				if ld == nd.up {
					continue
				}
				if ld.to.root != nil {
					return fmt.Errorf("simnet: topology is not a tree: link %s closes a cycle", ld.label)
				}
				ld.to.up, ld.to.root, ld.to.depth = ld.rev, r, nd.depth+1
				queue = append(queue, ld.to)
			}
		}
	}
	return nil
}

// treePath climbs the deeper end to the other's depth, then both ends to
// their common node, and returns the links src climbs followed by those
// that descend to dst.
func treePath(src, dst *Node) []*linkDir {
	a, b := src, dst
	for a.depth > b.depth {
		a = a.up.to
	}
	for b.depth > a.depth {
		b = b.up.to
	}
	for a != b {
		a, b = a.up.to, b.up.to
	}
	path := make([]*linkDir, src.depth+dst.depth-2*a.depth)
	i, j := 0, len(path)
	for x := src; x != a; x = x.up.to {
		path[i] = x.up
		i++
	}
	for x := dst; x != a; x = x.up.to {
		j--
		path[j] = x.up.rev
	}
	return path
}

// linkDir pump states.
const (
	linkIdle        = iota // no transfer in service, ready-queue entry not posted
	linkPosted             // continuation posted to the ready queue, pickup pending
	linkStalling           // head transfer waiting out a link outage (10ms polls)
	linkSerializing        // head transfer occupying the link until its serialization ends
)

// linkDir is one direction of a duplex link, with a FIFO store-and-forward
// pump. The pump is an event-driven continuation (a sim.Task) rather than a
// daemon goroutine: each wakeup that used to park/resume the pump process now
// runs inline on the kernel goroutine, at exactly the same ready-queue
// positions and with exactly the same event schedule, so virtual-time results
// are unchanged while the two channel handoffs per segment disappear.
type linkDir struct {
	net   *Network
	from  *Node
	to    *Node
	rev   *linkDir
	cfg   LinkConfig
	lane  *sim.Lane // the kernel's lane for cfg.Latency; nil when it has none
	label string    // "from>to", the trace track and metric prefix
	down  bool
	// Gray degradation (SetLinkDegraded): extra one-way propagation delay on
	// every transfer and extra flow-model loss probability, this direction
	// only. Both zero on a healthy link — the hot path pays one add.
	extraLat  time.Duration
	extraLoss float64
	// Traffic counters for utilization reporting.
	bytes   int64
	stalled int64
	busy    time.Duration

	// Cached metric handles, created on first use when net.Obs is set (nil
	// handles are no-ops, so these stay nil — and free — when disabled).
	mBytes *obs.Counter
	mQueue *obs.Gauge
	mBusy  *obs.Counter

	// Waiting transfers, FIFO; qhead advances instead of shifting.
	queue []*transfer
	qhead int
	state uint8
	cur   *transfer     // transfer in service while stalling/serializing
	ser   time.Duration // cur's serialization time, added to busy on completion
}

// transfer is one segment or control packet in flight along a path. idx is
// the index of the link currently being traversed (-1 for same-host sends).
// Data segments carry (seg, src, dst) and deliver without any closure;
// control packets (SYN/ACK/FIN) carry a deliver func. Records are pooled on
// the owning Network.
type transfer struct {
	net     *Network
	size    int
	path    []*linkDir
	idx     int
	seg     []byte
	src     *conn // writer credited when the segment lands
	dst     *conn // peer whose inbox receives seg
	seq     int64 // byte sequence (flow-modeled connections only)
	deliver func()
}

func (n *Network) newTransfer() *transfer {
	if l := len(n.freeTr); l > 0 {
		tr := n.freeTr[l-1]
		n.freeTr[l-1] = nil
		n.freeTr = n.freeTr[:l-1]
		return tr
	}
	return &transfer{net: n}
}

func (n *Network) putTransfer(tr *transfer) {
	*tr = transfer{net: n}
	if len(n.freeTr) < maxTransferPool {
		n.freeTr = append(n.freeTr, tr)
	}
}

// getSeg returns a segment buffer of the given size (<= MTU buffers come
// from the pool with MTU capacity so they stay reusable).
func (n *Network) getSeg(size int) []byte {
	if size <= n.MTU {
		if l := len(n.freeSeg); l > 0 {
			b := n.freeSeg[l-1]
			n.freeSeg[l-1] = nil
			n.freeSeg = n.freeSeg[:l-1]
			return b[:size]
		}
		return make([]byte, size, n.MTU)
	}
	return make([]byte, size)
}

// putSeg recycles a fully-consumed segment buffer.
func (n *Network) putSeg(b []byte) {
	if cap(b) == n.MTU && len(n.freeSeg) < maxSegPool {
		n.freeSeg = append(n.freeSeg, b[:n.MTU])
	}
}

// send enqueues a control packet of the given size along path; deliver runs
// at the final hop. Must be called from kernel or process context.
func (n *Network) send(path []*linkDir, size int, deliver func()) {
	tr := n.newTransfer()
	tr.size, tr.path, tr.deliver = size, path, deliver
	n.launch(tr)
}

// sendData enqueues one data segment from src to its peer; the segment
// buffer lands in the peer's inbox and the window credit returns to src.
func (n *Network) sendData(src *conn, seg []byte) {
	tr := n.newTransfer()
	tr.size, tr.path = len(seg), src.path
	tr.seg, tr.src, tr.dst = seg, src, src.peer
	if f := src.flow; f != nil {
		tr.seq = src.sendSeq
		src.sendSeq += int64(len(seg))
		f.inflight += len(seg)
	}
	n.launch(tr)
}

func (n *Network) launch(tr *transfer) {
	if len(tr.path) == 0 {
		// Same-host communication: deliver after a scheduling tick.
		tr.idx = -1
		n.K.AfterEvent(0, tr)
		return
	}
	tr.idx = 0
	tr.path[0].enqueue(tr)
}

func (ld *linkDir) enqueue(tr *transfer) {
	if tr.src != nil && tr.src.flow != nil && ld.shouldDrop() {
		ld.dropSegment(tr)
		return
	}
	if ld.state == linkIdle {
		ld.state = linkPosted
		ld.net.K.Post(ld)
	}
	ld.queue = append(ld.queue, tr)
	if o := ld.net.Obs; o != nil {
		ld.initMetrics(o)
		ld.mQueue.Set(int64(len(ld.queue) - ld.qhead))
	}
}

// initMetrics lazily binds the link's cached metric handles to o.
func (ld *linkDir) initMetrics(o *obs.Observer) {
	if ld.mBytes == nil {
		ld.mBytes = o.Metrics().Counter("link." + ld.label + ".bytes")
		ld.mQueue = o.Metrics().Gauge("link." + ld.label + ".queue")
		ld.mBusy = o.Metrics().Counter("link." + ld.label + ".busy_ns")
	}
}

func (ld *linkDir) popQueue() *transfer {
	if ld.qhead == len(ld.queue) {
		ld.queue = ld.queue[:0]
		ld.qhead = 0
		return nil
	}
	tr := ld.queue[ld.qhead]
	ld.queue[ld.qhead] = nil
	ld.qhead++
	if ld.qhead == len(ld.queue) {
		ld.queue = ld.queue[:0]
		ld.qhead = 0
	}
	return tr
}

// RunTask implements sim.Task: one pump wakeup. It is posted by enqueue when
// the link is idle and re-posted by the kernel when a poll or
// serialization-end event fires.
func (ld *linkDir) RunTask(k *sim.Kernel) {
	switch ld.state {
	case linkStalling:
		if ld.down {
			// Out of service: traffic stalls until the link returns. At
			// the reliable-stream abstraction this is what a link flap
			// looks like from the endpoints (TCP retransmits cover the
			// loss); only the delay is observable.
			k.AfterTask(10*time.Millisecond, ld)
			return
		}
		if !ld.beginSerialize(k, ld.cur) {
			return
		}
	case linkSerializing:
		ld.busy += ld.ser
		ld.completeHead(k)
	}
	// Drain: pick up queued transfers until one occupies the link (or the
	// queue empties). Zero-bandwidth links complete pickups inline, exactly
	// like the daemon pump's no-sleep fast path.
	for {
		tr := ld.popQueue()
		if tr == nil {
			ld.state = linkIdle
			return
		}
		ld.cur = tr
		if o := ld.net.Obs; o != nil {
			ld.mQueue.Set(int64(len(ld.queue) - ld.qhead))
		}
		if ld.down {
			// Stalled bytes are counted once per transfer, at pickup.
			ld.stalled += int64(tr.size)
			ld.state = linkStalling
			if o := ld.net.Obs; o != nil {
				o.Emit(k.Now(), "net", "stall", ld.label, obs.Int("bytes", int64(tr.size)))
			}
			k.AfterTask(10*time.Millisecond, ld)
			return
		}
		if !ld.beginSerialize(k, tr) {
			return
		}
	}
}

// beginSerialize starts tr's occupancy of the link. It reports whether the
// transfer completed inline (zero-bandwidth or zero-duration serialization
// re-posts keep the ready-queue position the daemon pump's Yield had).
func (ld *linkDir) beginSerialize(k *sim.Kernel, tr *transfer) bool {
	if ld.cfg.Bandwidth > 0 {
		ser := time.Duration(float64(tr.size) / float64(ld.cfg.Bandwidth) * float64(time.Second))
		ld.ser = ser
		ld.state = linkSerializing
		if ser > 0 {
			k.AfterTask(ser, ld)
		} else {
			k.Post(ld)
		}
		return false
	}
	ld.ser = 0
	ld.completeHead(k)
	return true
}

// completeHead finishes the in-service transfer: account the carried bytes
// and launch the propagation-latency event toward the next hop.
func (ld *linkDir) completeHead(k *sim.Kernel) {
	tr := ld.cur
	ld.cur = nil
	ld.bytes += int64(tr.size)
	lat := ld.cfg.Latency + ld.extraLat
	if o := ld.net.Obs; o != nil {
		// One instant per (segment, hop), stamped at serialization end ==
		// propagation start: ser_ns looks back, lat_ns looks forward.
		ld.initMetrics(o)
		ld.mBytes.Add(int64(tr.size))
		ld.mBusy.Add(int64(ld.ser))
		o.Emit(k.Now(), "net", "hop", ld.label,
			obs.Int("bytes", int64(tr.size)),
			obs.Int("ser_ns", int64(ld.ser)),
			obs.Int("lat_ns", int64(lat)))
	}
	if ld.lane != nil && ld.extraLat == 0 {
		ld.lane.AfterEvent(tr)
		return
	}
	k.AfterEvent(lat, tr)
}

// advance moves the transfer to its next hop, or delivers it at the final
// one and recycles the record.
func (tr *transfer) advance() {
	tr.idx++
	if tr.idx < len(tr.path) {
		tr.path[tr.idx].enqueue(tr)
		return
	}
	n := tr.net
	if o := n.Obs; o != nil && len(tr.path) > 0 {
		last := tr.path[len(tr.path)-1]
		o.Emit(n.K.Now(), "net", "deliver", last.label, obs.Int("bytes", int64(tr.size)))
	}
	if tr.deliver != nil {
		// Control packet: run the handshake/teardown callback.
		fn := tr.deliver
		n.putTransfer(tr)
		fn()
		return
	}
	// Data segment: land in the peer's inbox and return window credit.
	seg, src, dst := tr.seg, tr.src, tr.dst
	seq := tr.seq
	n.putTransfer(tr)
	if f := src.flow; f != nil {
		// Flow-modeled stream: the arrival is the ACK (window growth happens
		// here), and the receiver reassembles by sequence because
		// retransmitted segments arrive out of order.
		f.onAck(len(seg))
		src.credit += len(seg)
		src.creditCond.Broadcast()
		if dst.closed {
			n.putSeg(seg)
			return
		}
		dst.deliverSeq(seq, seg)
		return
	}
	if !dst.closed {
		dst.pushInbox(seg)
		dst.readCond.Broadcast()
	} else {
		n.putSeg(seg)
	}
	src.credit += len(seg)
	src.creditCond.Broadcast()
}

// OnEvent implements sim.EventHandler: the propagation-latency event fired.
func (tr *transfer) OnEvent(k *sim.Kernel) { tr.advance() }

// checkFirewalls applies site firewall policy to a connection attempt from
// src to dst:dstPort. Crossing out of a firewalled site consults its
// outgoing rules; crossing into one consults its incoming rules.
func (n *Network) checkFirewalls(src, dst *Node, dstPort int) error {
	if src.site == dst.site {
		return nil
	}
	if fw := n.firewalls[src.site]; fw != nil {
		if !fw.PermitConn(firewall.Outgoing, src.name, dst.name, dstPort) {
			return fmt.Errorf("simnet: %s -> %s:%d: %w (site %s outgoing)",
				src.name, dst.name, dstPort, errFirewallDenied, src.site)
		}
	}
	if fw := n.firewalls[dst.site]; fw != nil {
		if !fw.PermitConn(firewall.Incoming, src.name, dst.name, dstPort) {
			return fmt.Errorf("simnet: %s -> %s:%d: %w (site %s incoming)",
				src.name, dst.name, dstPort, errFirewallDenied, dst.site)
		}
	}
	return nil
}

// SendMessage delivers a connection-less control datagram of size bytes from
// src to dst: it traverses the routed path hop by hop (each hop costs the
// link's serialization and propagation exactly like a stream segment) and
// runs deliver at the final node. There is no connection handshake and —
// unlike Dial — no firewall check: datagrams model intra-fleet control
// traffic (dispatch, completions, heartbeats) between components that are
// already mutually trusted, not new inbound connections. Must be called
// from kernel or process context. Same-node sends deliver after a
// scheduling tick. It is Resolve then SendOn; a sender that reuses a route
// holds the Path instead.
func (n *Network) SendMessage(src, dst string, size int, deliver func()) error {
	p, err := n.Resolve(src, dst)
	if err != nil {
		return err
	}
	n.SendOn(p, size, deliver)
	return nil
}

// Resolve returns the routed path from src to dst, from the route cache.
func (n *Network) Resolve(src, dst string) (*Path, error) {
	a, b := n.nodes[src], n.nodes[dst]
	if a == nil || b == nil {
		return nil, fmt.Errorf("simnet: unknown node in %q -> %q", src, dst)
	}
	p, err := n.route(a, b)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("simnet: no route %q -> %q", src, dst)
	}
	return p, nil
}

// SendOn is SendMessage on a resolved path: the same datagram, hop by hop,
// with deliver run at the path's last node.
func (n *Network) SendOn(p *Path, size int, deliver func()) {
	n.send(p.links, size, deliver)
}

// PathLatency reports the one-way propagation latency between two hosts
// (sum of link latencies on the routed path), for calibration and tests.
func (n *Network) PathLatency(src, dst string) (time.Duration, error) {
	p, err := n.Resolve(src, dst)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, ld := range p.links {
		total += ld.cfg.Latency
	}
	return total, nil
}

// PathBandwidth reports the bottleneck bandwidth along the routed path;
// 0 means unlimited end to end.
func (n *Network) PathBandwidth(src, dst string) (int64, error) {
	p, err := n.Resolve(src, dst)
	if err != nil {
		return 0, err
	}
	var min int64
	for _, ld := range p.links {
		if ld.cfg.Bandwidth == 0 {
			continue
		}
		if min == 0 || ld.cfg.Bandwidth < min {
			min = ld.cfg.Bandwidth
		}
	}
	return min, nil
}

// Hops reports the number of links on the routed path.
func (n *Network) Hops(src, dst string) (int, error) {
	p, err := n.Resolve(src, dst)
	if err != nil {
		return 0, err
	}
	return len(p.links), nil
}
