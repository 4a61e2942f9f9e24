package simnet

import (
	"math"
	"sort"
	"time"

	"nxcluster/internal/obs"
)

// TCP-Reno flow model.
//
// By default simnet streams are loss-free: the per-connection sliding window
// and the link pumps model latency and serialization only, which is the right
// fidelity for the paper's calibrated tables. The flow model is an opt-in
// layer on top that makes wide-area throughput genuinely congestion-limited:
// each connection endpoint gets a TCP-Reno congestion window (slow start,
// AIMD congestion avoidance, multiplicative decrease on loss, at most one
// decrease per RTT), and links may drop data segments — randomly at a seeded
// per-segment rate, or by tail drop when their queue exceeds a limit. A
// dropped segment is retransmitted by the sender one RTT later (fast
// retransmit: the three duplicate ACKs are not simulated individually, only
// their timing). Because retransmitted segments arrive out of order, flow
// connections carry byte sequence numbers and reassemble at the receiver.
//
// Everything is deterministic: the loss draw comes from a dedicated
// splitmix64 stream on the Network (not the kernel RNG, so enabling the model
// never perturbs unrelated code), and draws happen in kernel event order.
// With the model disabled nothing in the data path changes — no draws, no
// sequence numbers, no extra events — so all existing goldens stay
// bit-identical.

// FlowConfig parameterizes the network's TCP-Reno flow model.
type FlowConfig struct {
	// InitialWindow is the initial congestion window in segments (default 2).
	InitialWindow int
	// InitialSsthresh is the initial slow-start threshold in bytes
	// (default 64 KiB).
	InitialSsthresh int
	// Seed seeds the deterministic per-segment loss stream.
	Seed uint64
}

// FlowStats aggregates flow-model activity across the whole network.
type FlowStats struct {
	// Drops counts data segments dropped by random loss or queue overflow.
	Drops int64
	// Retransmits counts segments re-sent after loss detection.
	Retransmits int64
	// Cuts counts multiplicative window decreases (at most one per RTT per
	// flow, so Cuts <= Retransmits).
	Cuts int64
}

// EnableFlowModel switches the TCP-Reno flow model on for every connection
// dialed afterwards. It must be called before traffic flows; already-open
// connections are unaffected.
func (n *Network) EnableFlowModel(cfg FlowConfig) {
	if cfg.InitialWindow <= 0 {
		cfg.InitialWindow = 2
	}
	if cfg.InitialSsthresh <= 0 {
		cfg.InitialSsthresh = 64 << 10
	}
	n.flowOn = true
	n.flowCfg = cfg
	n.lossSeed = cfg.Seed
}

// FlowStats reports aggregate flow-model counters.
func (n *Network) FlowStats() FlowStats {
	return FlowStats{Drops: n.flowDrops, Retransmits: n.flowRetrans, Cuts: n.flowCuts}
}

// flowRand draws the next uniform [0,1) variate from the network's dedicated
// loss stream (splitmix64, the same generator the kernel uses — but a
// separate sequence, so loss draws never disturb application randomness).
func (n *Network) flowRand() float64 {
	n.lossSeed += 0x9e3779b97f4a7c15
	z := n.lossSeed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) * (1.0 / (1 << 53))
}

// flowState is one direction's Reno congestion state (each endpoint of a
// connection is an independent flow for the data it sends).
type flowState struct {
	mss      int           // segment size (the network MTU)
	cwnd     int           // congestion window, bytes
	ssthresh int           // slow-start threshold, bytes
	inflight int           // bytes sent and not yet acknowledged
	rtt      time.Duration // propagation round trip, the loss-detection delay
	lastCut  time.Duration // virtual instant of the last multiplicative decrease

	// Per-flow counters (network-wide aggregates live on Network).
	drops       int64
	retransmits int64
	cuts        int64

	gCwnd *obs.Gauge // nil when tracing is off
}

// newFlowState builds the Reno state for a connection whose outbound path is
// path. Loopback (empty path) connections carry no flow state.
func (n *Network) newFlowState(path []*linkDir, label string) *flowState {
	var lat time.Duration
	for _, ld := range path {
		lat += ld.cfg.Latency
	}
	rtt := 2 * lat
	if rtt < time.Millisecond {
		rtt = time.Millisecond
	}
	f := &flowState{
		mss:      n.MTU,
		cwnd:     n.flowCfg.InitialWindow * n.MTU,
		ssthresh: n.flowCfg.InitialSsthresh,
		rtt:      rtt,
		lastCut:  math.MinInt64 / 4,
	}
	if o := n.Obs; o != nil {
		f.gCwnd = o.Metrics().Gauge("flow." + label + ".cwnd")
		f.gCwnd.Set(int64(f.cwnd))
	}
	return f
}

// onAck processes the acknowledgment of n in-flight bytes: slow start grows
// the window one MSS per ACK (doubling per RTT), congestion avoidance grows
// it MSS²/cwnd per ACK (about one MSS per RTT) — the classic Reno shapes,
// RTT-clocked for free because ACKs return one path round trip after the
// send.
func (f *flowState) onAck(n int) {
	f.inflight -= n
	if f.inflight < 0 {
		f.inflight = 0
	}
	if f.cwnd < f.ssthresh {
		f.cwnd += f.mss
	} else {
		inc := f.mss * f.mss / f.cwnd
		if inc < 1 {
			inc = 1
		}
		f.cwnd += inc
	}
	if f.gCwnd != nil {
		f.gCwnd.Set(int64(f.cwnd))
	}
}

// onLoss reacts to a detected segment loss at virtual instant now. The
// window halves (to max(inflight/2, 2·MSS)) at most once per RTT — losses
// within the same window of data count as one congestion event, as in
// NewReno. It reports whether a decrease happened.
func (f *flowState) onLoss(now time.Duration) bool {
	f.retransmits++
	if now-f.lastCut < f.rtt {
		return false
	}
	f.lastCut = now
	f.cuts++
	half := f.inflight / 2
	if min := 2 * f.mss; half < min {
		half = min
	}
	f.ssthresh = half
	f.cwnd = half
	if f.gCwnd != nil {
		f.gCwnd.Set(int64(f.cwnd))
	}
	return true
}

// shouldDrop decides, for a flow-modeled data segment about to enter this
// link's queue, whether the segment is lost here: tail drop when the waiting
// queue is at QueueLimit, else a seeded random draw against LossRate. Down
// links stall traffic rather than drop it (outages and congestion are
// separate mechanisms), and control packets are never dropped.
func (ld *linkDir) shouldDrop() bool {
	if ld.down {
		return false
	}
	if ld.cfg.QueueLimit > 0 && len(ld.queue)-ld.qhead >= ld.cfg.QueueLimit {
		return true
	}
	if rate := ld.cfg.LossRate + ld.extraLoss; rate > 0 {
		if rate > 0.99 {
			rate = 0.99 // a flow must eventually make progress
		}
		return ld.net.flowRand() < rate
	}
	return false
}

// dropSegment records the loss and schedules the sender's reaction one RTT
// later: the window cut (loss detection via fast retransmit) and the
// retransmission, which re-enters the network at the first hop and may be
// dropped again.
func (ld *linkDir) dropSegment(tr *transfer) {
	n := ld.net
	f := tr.src.flow
	f.drops++
	n.flowDrops++
	if o := n.Obs; o != nil {
		o.Emit(n.K.Now(), "net", "drop", ld.label,
			obs.Int("bytes", int64(tr.size)), obs.Int("seq", tr.seq))
		o.Metrics().Counter("link." + ld.label + ".drops").Add(1)
	}
	n.K.After(f.rtt, func() { n.retransmit(tr) })
}

// retransmit re-sends a dropped segment from its origin after the sender
// detected the loss. A cleanly Closed sender still retransmits — its FIN
// only takes effect at the receiver once all bytes before it land — but an
// aborted stream is dead and the segment is simply recycled.
func (n *Network) retransmit(tr *transfer) {
	src := tr.src
	if src.aborted {
		n.putSeg(tr.seg)
		n.putTransfer(tr)
		return
	}
	f := src.flow
	if f.onLoss(n.K.Now()) {
		n.flowCuts++
	}
	n.flowRetrans++
	if o := n.Obs; o != nil {
		o.Emit(n.K.Now(), "net", "retransmit", src.local,
			obs.Int("bytes", int64(tr.size)), obs.Int("seq", tr.seq))
	}
	tr.idx = 0
	tr.path[0].enqueue(tr)
}

// oooSeg is an out-of-order segment parked at the receiver until a
// retransmission fills the sequence hole before it.
type oooSeg struct {
	seq int64
	buf []byte
}

// deliverSeq lands one flow-modeled data segment at the receiver: in-order
// segments go straight to the inbox (pulling any parked successors along);
// segments beyond a hole park in the sorted reassembly buffer. The window
// credit was already returned to the sender (selective-acknowledgment
// semantics — the receiver buffers out-of-order data).
func (c *conn) deliverSeq(seq int64, seg []byte) {
	switch {
	case seq == c.recvNext:
		c.pushInbox(seg)
		c.recvNext += int64(len(seg))
		for len(c.ooo) > 0 && c.ooo[0].seq == c.recvNext {
			c.pushInbox(c.ooo[0].buf)
			c.recvNext += int64(len(c.ooo[0].buf))
			c.ooo[0].buf = nil
			c.ooo = c.ooo[1:]
		}
		c.readCond.Broadcast()
	case seq > c.recvNext:
		i := sort.Search(len(c.ooo), func(i int) bool { return c.ooo[i].seq >= seq })
		c.ooo = append(c.ooo, oooSeg{})
		copy(c.ooo[i+1:], c.ooo[i:])
		c.ooo[i] = oooSeg{seq: seq, buf: seg}
	default:
		// Duplicate of already-delivered data; discard.
		c.node.net.putSeg(seg)
	}
	// A FIN that arrived ahead of retransmitted data takes effect only once
	// the byte stream is complete up to it.
	if c.finSeq >= 0 && c.recvNext >= c.finSeq && !c.remoteClosed {
		c.remoteClosed = true
		c.readCond.Broadcast()
		c.creditCond.Broadcast()
	}
}
