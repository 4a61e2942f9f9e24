package simnet

import (
	"fmt"
	"sort"
	"time"

	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// trackProc registers a process as running on the host so CrashHost can take
// it down; untrackProc runs from the process's own deferred cleanup.
func (nd *Node) trackProc(p *sim.Proc) {
	if nd.procs != nil {
		nd.procs[p.PID()] = p
	}
}

func (nd *Node) untrackProc(p *sim.Proc) {
	if nd.procs != nil {
		delete(nd.procs, p.PID())
	}
}

// trackConn registers an open connection endpoint on its host.
func (nd *Node) trackConn(c *conn) {
	if nd.conns != nil {
		nd.conns[c] = struct{}{}
	}
}

func (nd *Node) untrackConn(c *conn) {
	if nd.conns != nil {
		delete(nd.conns, c)
	}
}

// Crashed reports whether the host is currently down.
func (nd *Node) Crashed() bool { return nd.crashed }

// OnRestart registers a boot script for the host: after every RestartHost,
// fn is spawned as a daemon process (in registration order), modeling init
// scripts that bring a machine's services back after a reboot.
func (nd *Node) OnRestart(name string, fn func(transport.Env)) {
	nd.restartHooks = append(nd.restartHooks, restartHook{name: name, fn: fn})
}

// CrashHost fails the named host abruptly, as a power loss would: every
// process on it is killed mid-flight (stacks unwind, no goroutine leaks),
// every listener dies, and every open connection endpoint is reset — the
// surviving peer's pending and future Read/Write calls fail with
// transport.ErrReset after the RST propagates along the path. Dials to a
// crashed host fail with transport.ErrHostDown after one path round trip.
//
// CrashHost must be called from an After callback, a FaultPlan, or between
// Run calls — not from a process, an inline sim.Task or a sim.EventHandler:
// killing a process means waiting for it to unwind, which no goroutine that
// may be the victim's own can do (sim.Kernel.Kill panics there). All teardown
// is ordered deterministically: conns by address, processes by PID.
func (n *Network) CrashHost(name string) error {
	nd := n.nodes[name]
	if nd == nil || !nd.isHost {
		return fmt.Errorf("simnet: CrashHost(%q): not a host", name)
	}
	if nd.crashed {
		return nil
	}
	nd.crashed = true

	// Listeners die: blocked Accepts fail, queued-but-unaccepted conns are
	// reset with their dialer's endpoints below.
	ports := make([]int, 0, len(nd.listeners))
	for port := range nd.listeners {
		ports = append(ports, port)
	}
	sort.Ints(ports)
	for _, port := range ports {
		l := nd.listeners[port]
		l.closed = true
		l.pending.Close()
	}
	nd.listeners = make(map[int]*listener)

	// Reset open connections and notify surviving peers with an RST that
	// travels the path like any control packet.
	conns := make([]*conn, 0, len(nd.conns))
	for c := range nd.conns {
		conns = append(conns, c)
	}
	sort.Slice(conns, func(i, j int) bool {
		if conns[i].local != conns[j].local {
			return conns[i].local < conns[j].local
		}
		return conns[i].remote < conns[j].remote
	})
	for _, c := range conns {
		c.reset()
		peer := c.peer
		if peer.node.crashed {
			continue // both endpoints down; nobody left to notify
		}
		n.send(c.path, ctlSize, func() { peer.deliverReset() })
	}
	nd.conns = make(map[*conn]struct{})

	// Kill processes in PID order. Their deferred cleanup runs, but any
	// conn.Close they attempt is a no-op on the already-reset endpoints.
	pids := make([]int, 0, len(nd.procs))
	for pid := range nd.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		n.K.Kill(nd.procs[pid])
	}
	nd.procs = make(map[int]*sim.Proc)
	return nil
}

// RestartHost brings a crashed host back: fresh NIC and port state, a fresh
// CPU semaphore (crash-killed processes may have died holding CPUs), and the
// host's OnRestart boot scripts spawned in registration order. Like
// CrashHost it must run from kernel context.
func (n *Network) RestartHost(name string) error {
	nd := n.nodes[name]
	if nd == nil || !nd.isHost {
		return fmt.Errorf("simnet: RestartHost(%q): not a host", name)
	}
	if !nd.crashed {
		return nil
	}
	nd.crashed = false
	nd.cpus = sim.NewSemaphore(n.K, nd.cpuCount)
	nd.nextPort = 32768
	for _, h := range nd.restartHooks {
		nd.SpawnDaemonOn(h.name, h.fn)
	}
	return nil
}

// SetLinkDown takes the duplex link between a and b out of service: packets
// already serialized onto the wire still arrive; everything else — data
// segments, connection attempts — stalls until the link returns, which is
// what endpoints of reliable streams observe across a real link flap (TCP
// retransmissions cover the loss; only the delay shows). It reports whether
// such a link exists.
func (n *Network) SetLinkDown(a, b string) bool {
	return n.setLink(a, b, true)
}

// SetLinkUp restores a downed link.
func (n *Network) SetLinkUp(a, b string) bool {
	return n.setLink(a, b, false)
}

func (n *Network) setLink(a, b string, down bool) bool {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return false
	}
	found := false
	for _, ld := range na.links {
		if ld.to == nb {
			ld.down = down
			ld.rev.down = down
			found = true
		}
	}
	return found
}

// SetPartition severs (down=true) or restores every link with one endpoint
// in groupA and the other in groupB. All cross-group links change state in
// this one call — a network partition is atomic, traffic never observes a
// half-cut boundary. Unknown node names and group pairs with no direct link
// are skipped, so healing after topology edits is a deterministic no-op.
// It returns the number of duplex links touched.
func (n *Network) SetPartition(groupA, groupB []string, down bool) int {
	inB := make(map[string]bool, len(groupB))
	for _, b := range groupB {
		inB[b] = true
	}
	count := 0
	for _, a := range groupA {
		na := n.nodes[a]
		if na == nil {
			continue
		}
		for _, ld := range na.links {
			if inB[ld.to.name] {
				ld.down = down
				ld.rev.down = down
				count++
			}
		}
	}
	return count
}

// SetLinkDegraded applies gray degradation to the DIRECTED link a->b: every
// transfer pays addLatency of extra propagation delay, and flow-modeled data
// segments see lossPct of extra loss on top of the configured LossRate
// (plain reliable streams are lossless by construction — for them only the
// latency shows). Pass zeros to clear. Routing is not recomputed: paths keep
// their hops, so degradation models congestion on the same route rather
// than a topology change. It reports whether the link exists.
func (n *Network) SetLinkDegraded(a, b string, addLatency time.Duration, lossPct float64) bool {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return false
	}
	found := false
	for _, ld := range na.links {
		if ld.to == nb {
			ld.extraLat = addLatency
			ld.extraLoss = lossPct
			found = true
		}
	}
	return found
}

// LinkDegraded reports the a->b direction's current extra latency and loss.
func (n *Network) LinkDegraded(a, b string) (time.Duration, float64) {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return 0, 0
	}
	for _, ld := range na.links {
		if ld.to == nb {
			return ld.extraLat, ld.extraLoss
		}
	}
	return 0, 0
}

// SetHostSpeed rescales a host's compute speed to configured/factor: factor
// 2 makes every Compute call take twice as long (a straggler), factor 1
// restores nominal. Sleep is wall-time, not compute, and stays unscaled.
// Compute calls already in progress keep the rate they started with; only
// new calls observe the change. Restarting a crashed host does not reset
// the factor — slowness models hardware state that survives a reboot.
func (n *Network) SetHostSpeed(name string, factor float64) error {
	nd := n.nodes[name]
	if nd == nil || !nd.isHost {
		return fmt.Errorf("simnet: SetHostSpeed(%q): not a host", name)
	}
	if factor <= 0 {
		return fmt.Errorf("simnet: SetHostSpeed(%q): factor %v must be > 0", name, factor)
	}
	nd.speed = nd.baseSpeed / factor
	return nil
}

// LinkDown reports whether the a->b link is out of service.
func (n *Network) LinkDown(a, b string) bool {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return false
	}
	for _, ld := range na.links {
		if ld.to == nb {
			return ld.down
		}
	}
	return false
}

// LinkStats reports one directed link's traffic counters.
type LinkStats struct {
	// From and To name the endpoints.
	From, To string
	// Bytes carried since the simulation started.
	Bytes int64
	// Stalled counts bytes that had to wait out a link outage.
	Stalled int64
	// Busy is the cumulative serialization time.
	Busy time.Duration
}

// Stats returns per-directed-link traffic counters, sorted for determinism.
func (n *Network) Stats() []LinkStats {
	var out []LinkStats
	for _, node := range n.nodes {
		for _, ld := range node.links {
			out = append(out, LinkStats{
				From:    ld.from.name,
				To:      ld.to.name,
				Bytes:   ld.bytes,
				Stalled: ld.stalled,
				Busy:    ld.busy,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Utilization reports the a->b link's busy fraction of the elapsed virtual
// time (0 when no time has passed).
func (n *Network) Utilization(a, b string) (float64, error) {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return 0, fmt.Errorf("simnet: unknown node in %q -> %q", a, b)
	}
	for _, ld := range na.links {
		if ld.to == nb {
			now := n.K.Now()
			if now == 0 {
				return 0, nil
			}
			return float64(ld.busy) / float64(now), nil
		}
	}
	return 0, fmt.Errorf("simnet: no link %q -> %q", a, b)
}
