package bench

import (
	"fmt"
	"strings"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

// This file is the latency-decomposition report: it re-runs the Table 2
// measurement points with tracing enabled and splits one timed 1-byte
// ping-pong into per-hop rows. Rows telescope over the trace — each row's
// delta is the virtual time between consecutive events on the single global
// clock — so they sum bit-exactly to the measured round trip, and RTT/2 is
// the one-way latency Table 2 reports.

// DecompRow is one segment of the round trip: the virtual time between the
// previous event (or the send) and this one, attributed to this event.
type DecompRow struct {
	// At is the event's virtual timestamp.
	At time.Duration
	// Delta is the time since the previous row (the segment this event
	// closes).
	Delta time.Duration
	// Label names the event: "cat/name track k=v ...".
	Label string
}

// Decomposition is one measurement point's per-hop breakdown.
type Decomposition struct {
	// Path names the endpoints as Table 2 does.
	Path string
	// Indirect is true for the Nexus Proxy chain.
	Indirect bool
	// RTT is the measured round-trip time of the decomposed ping-pong.
	RTT time.Duration
	// Latency is RTT/2, the number Table 2 reports.
	Latency time.Duration
	// Rows are the segments, in virtual-time order; their deltas sum to RTT.
	Rows []DecompRow
	// Obs holds the point's full trace.
	Obs *obs.Observer
}

// RunDecomposition measures the four Table 2 points with tracing on and
// decomposes each into per-hop rows. Each point runs on a fresh testbed and
// kernel with its own observer, so the fan-out across Workers host threads
// changes nothing in virtual time.
func RunDecomposition(cfg Table2Config) ([]Decomposition, error) {
	type point struct {
		path     string
		peer     string
		indirect bool
	}
	points := []point{
		{"RWCP-Sun <-> COMPaS", cluster.CompasNode(0), false},
		{"RWCP-Sun <-> COMPaS", cluster.CompasNode(0), true},
		{"RWCP-Sun <-> ETL-Sun", cluster.ETLSun, false},
		{"RWCP-Sun <-> ETL-Sun", cluster.ETLSun, true},
	}
	out := make([]Decomposition, len(points))
	err := RunParallel(len(points), cfg.Workers, func(i int) error {
		pt := points[i]
		d, err := decompPoint(pt.path, pt.peer, pt.indirect, cfg.Options)
		if err != nil {
			return fmt.Errorf("bench: decomp %s (%s): %w", pt.path, d.Mode(), err)
		}
		out[i] = d
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Mode renders "direct" or "indirect".
func (d Decomposition) Mode() string {
	if d.Indirect {
		return "indirect"
	}
	return "direct"
}

// decompPoint runs one Table 2 point's connection setup exactly as
// measurePoint does (client on RWCP-Sun, server on peer, forward and reverse
// channels each built per that side's configuration), then times a single
// 1-byte ping-pong with tracing enabled and telescopes the trace window into
// rows.
func decompPoint(path, peer string, indirect bool, opts cluster.Options) (Decomposition, error) {
	o := obs.New()
	opts.OpenFirewall = !indirect
	opts.Obs = o
	tb := cluster.NewTestbed(opts)
	defer tb.K.Shutdown()

	d := Decomposition{Path: path, Indirect: indirect, Obs: o}
	peerProxied := indirect && strings.HasPrefix(peer, "compas")

	serverAddr := make(chan string, 1)
	var benchErr error
	fail := func(err error) { benchErr = fmt.Errorf("%s: %w", path, err) }

	tb.Node(peer).SpawnDaemonOn("t2-server", func(env transport.Env) {
		var l transport.Listener
		var err error
		if peerProxied {
			l, err = proxy.NXProxyBind(env, tb.ProxyCfg)
		} else {
			l, err = env.Listen(6100)
		}
		if err != nil {
			fail(err)
			return
		}
		serverAddr <- l.Addr()
		fwd, err := l.Accept(env)
		if err != nil {
			return
		}
		st := transport.Stream{Env: env, Conn: fwd}
		revAddr, err := readAddr(st)
		if err != nil {
			fail(err)
			return
		}
		var rev transport.Conn
		if peerProxied {
			rev, err = proxy.NXProxyConnect(env, tb.ProxyCfg, revAddr)
		} else {
			rev, err = env.Dial(revAddr)
		}
		if err != nil {
			fail(err)
			return
		}
		serveT2(env, fwd, rev)
	})

	var start, end time.Duration
	startIdx, endIdx := 0, 0
	done := false
	tb.Node(cluster.RWCPSun).SpawnOn("t2-client", func(env transport.Env) {
		var rl transport.Listener
		var err error
		if indirect {
			rl, err = proxy.NXProxyBind(env, tb.ProxyCfg)
		} else {
			rl, err = env.Listen(6200)
		}
		if err != nil {
			fail(err)
			return
		}
		for len(serverAddr) == 0 {
			env.Sleep(time.Millisecond)
		}
		addr := <-serverAddr
		var fwd transport.Conn
		if indirect {
			fwd, err = proxy.NXProxyConnect(env, tb.ProxyCfg, addr)
		} else {
			fwd, err = env.Dial(addr)
		}
		if err != nil {
			fail(err)
			return
		}
		fst := transport.Stream{Env: env, Conn: fwd}
		if err := writeAddr(fst, rl.Addr()); err != nil {
			fail(err)
			return
		}
		rev, err := rl.Accept(env)
		if err != nil {
			fail(err)
			return
		}
		rst := transport.Stream{Env: env, Conn: rev}

		ping := make([]byte, 1)
		if err := pingPong(fst, rst, ping); err != nil { // warmup
			fail(err)
			return
		}
		// The decomposed round trip: mark the trace window around one
		// ping-pong so setup and warmup traffic stays out of the rows.
		startIdx = o.Len()
		start = env.Now()
		if err := pingPong(fst, rst, ping); err != nil {
			fail(err)
			return
		}
		end = env.Now()
		endIdx = o.Len()
		done = true
		_ = fwd.Close(env)
	})

	if err := tb.K.Run(); err != nil {
		return d, err
	}
	if benchErr != nil {
		return d, benchErr
	}
	if !done {
		return d, fmt.Errorf("measurement did not complete")
	}

	d.RTT = end - start
	d.Latency = d.RTT / 2
	prev := start
	for _, e := range o.Events()[startIdx:endIdx] {
		d.Rows = append(d.Rows, DecompRow{At: e.At, Delta: e.At - prev, Label: labelOf(e)})
		prev = e.At
	}
	if end > prev {
		d.Rows = append(d.Rows, DecompRow{At: end, Delta: end - prev, Label: "app/ack-read rwcp-sun"})
	}
	var sum time.Duration
	for _, r := range d.Rows {
		sum += r.Delta
	}
	if sum != d.RTT {
		return d, fmt.Errorf("decomposition does not telescope: rows sum to %v, RTT %v", sum, d.RTT)
	}
	return d, nil
}

// labelOf renders an event as "cat/name track k=v ...".
func labelOf(e obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s %s", e.Cat, e.Name, e.Track)
	for _, f := range e.Fields {
		if f.IsStr {
			fmt.Fprintf(&b, " %s=%s", f.Key, f.Str)
		} else {
			fmt.Fprintf(&b, " %s=%d", f.Key, f.Int)
		}
	}
	return b.String()
}

// FormatDecomposition renders the per-hop breakdown for every point. The
// deltas in each section sum exactly (in virtual time) to the RTT line, and
// the one-way latency is RTT/2 — the same number the Table 2 row reports.
func FormatDecomposition(ds []Decomposition) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Latency decomposition: one 1-byte ping-pong per Table 2 point")
	fmt.Fprintln(&b, "(rows telescope over the virtual-time trace; deltas sum exactly to the RTT)")
	for _, d := range ds {
		fmt.Fprintf(&b, "\n== %s (%s) ==\n", d.Path, d.Mode())
		fmt.Fprintf(&b, "%14s %14s  %s\n", "at", "+delta", "event")
		for _, r := range d.Rows {
			fmt.Fprintf(&b, "%14s %14s  %s\n", fmtNS(r.At), "+"+fmtNS(r.Delta), r.Label)
		}
		fmt.Fprintf(&b, "RTT %s  =>  one-way latency (RTT/2) %s\n", fmtNS(d.RTT), fmtNS(d.Latency))
	}
	return b.String()
}

// fmtNS renders a duration in milliseconds with nanosecond precision, so
// rows remain bit-exact in print form.
func fmtNS(d time.Duration) string {
	return fmt.Sprintf("%.6fms", float64(d)/float64(time.Millisecond))
}

// RunKnapsackTraced runs the wide-area knapsack system (through the Nexus
// Proxy) with the given observer attached to the testbed: every steal,
// bound improvement, relay buffer and link hop lands in the trace, ready
// for JSONL or Chrome trace_event export.
func RunKnapsackTraced(cfg KnapsackConfig, o *obs.Observer) (*knapsack.Result, error) {
	cfg = cfg.withDefaults()
	cfg.Options.Obs = o
	in := knapsack.Normalized(cfg.Items, cfg.Capacity)
	return runOn(cfg, in, func(tb *cluster.Testbed) []mpi.Placement {
		return tb.Placements(cluster.SystemWide, true)
	}, true)
}
