// Package bench regenerates every table and figure of the paper's
// evaluation on the simulated testbed: Table 2 (communication latency and
// bandwidth, direct vs. through the Nexus Proxy), Table 3 (system
// configurations), Tables 4-6 (the 0-1 knapsack runs: execution time,
// speedup, steals, traversed nodes) and Figures 1-5 (topology, RMF
// architecture, proxy connection chains, experimental environment).
package bench

import (
	"fmt"
	"strings"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/proxy"
	"nxcluster/internal/transport"
)

// Table2Sizes are the message sizes the paper reports bandwidth for.
var Table2Sizes = []int{4096, 1 << 20}

// Table2Row is one measurement row.
type Table2Row struct {
	// Path names the endpoints, e.g. "RWCP-Sun <-> COMPaS".
	Path string
	// Indirect is true for measurements through the Nexus Proxy.
	Indirect bool
	// Latency is the one-way small-message latency (RTT/2).
	Latency time.Duration
	// Bandwidth maps message size to bytes/second.
	Bandwidth map[int]float64
}

// Mode renders "direct" or "indirect".
func (r Table2Row) Mode() string {
	if r.Indirect {
		return "indirect"
	}
	return "direct"
}

// Table2Config tunes the measurement.
type Table2Config struct {
	// Rounds per measurement point (default 4).
	Rounds int
	// Sizes are the message sizes bandwidth is measured at (default
	// Table2Sizes). Carried in the config — not a package global — so
	// concurrent measurements cannot interfere.
	Sizes []int
	// Workers bounds host-side parallelism across measurement points, each
	// of which runs on its own testbed and kernel. 0 selects GOMAXPROCS;
	// 1 measures sequentially.
	Workers int
	// Options are testbed options (relay calibration overrides for
	// ablations).
	Options cluster.Options
}

// RunTable2 reproduces the paper's Table 2: latency and bandwidth between
// RWCP-Sun and COMPaS and between RWCP-Sun and ETL-Sun, directly and through
// the proxy. Each row runs on a fresh testbed; direct rows open the firewall
// exactly as the paper temporarily did.
//
// Communication mirrors the Nexus model: a link is a pair of unidirectional
// channels, one per direction, each established the way that side's
// configuration dictates. In indirect mode a firewalled endpoint's inbound
// channel runs over the NXProxyBind chain (peer -> outer -> inner -> host)
// and its outbound connections run through NXProxyConnect, so a COMPaS <->
// RWCP-Sun round trip crosses the relays in both directions — which is why
// the paper measures ~60x direct LAN latency there and ~6x on the WAN path
// where only the RWCP side is proxied.
func RunTable2(cfg Table2Config) ([]Table2Row, error) {
	if cfg.Rounds <= 0 {
		cfg.Rounds = 4
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = Table2Sizes
	}
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
	// Each point runs on a fresh testbed with its own kernel; measure them
	// across host threads and keep rows in point order.
	rows := make([]Table2Row, len(points))
	err := RunParallel(len(points), cfg.Workers, func(i int) error {
		pt := points[i]
		row, err := measurePoint(pt.path, pt.peer, pt.indirect, cfg)
		if err != nil {
			mode := "direct"
			if pt.indirect {
				mode = "indirect"
			}
			return fmt.Errorf("bench: table2 %s (%s): %w", pt.path, mode, err)
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// measurePoint measures one Table 2 row on a fresh testbed. The client runs
// on RWCP-Sun (always behind the firewall); the server on the peer host.
func measurePoint(path, peer string, indirect bool, cfg Table2Config) (Table2Row, error) {
	opts := cfg.Options
	opts.OpenFirewall = !indirect
	tb := cluster.NewTestbed(opts)
	defer tb.K.Shutdown()

	row := Table2Row{Path: path, Indirect: indirect, Bandwidth: make(map[int]float64)}
	peerProxied := indirect && strings.HasPrefix(peer, "compas")

	serverAddr := make(chan string, 1)
	var benchErr error
	fail := func(err error) { benchErr = fmt.Errorf("%s: %w", path, err) }

	// Server: accept the forward channel, dial the reverse channel back to
	// the client's advertised address, then ack each transfer.
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

	done := false
	tb.Node(cluster.RWCPSun).SpawnOn("t2-client", func(env transport.Env) {
		// Reverse channel listener: through the proxy when indirect, since
		// RWCP-Sun always sits behind the firewall.
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

		// Latency: 1-byte ping (forward) / 1-byte ack (reverse).
		ping := make([]byte, 1)
		if err := pingPong(fst, rst, ping); err != nil { // warmup
			fail(err)
			return
		}
		start := env.Now()
		for i := 0; i < cfg.Rounds; i++ {
			if err := pingPong(fst, rst, ping); err != nil {
				fail(err)
				return
			}
		}
		row.Latency = (env.Now() - start) / time.Duration(2*cfg.Rounds)

		// Bandwidth per message size: one message each, sent every round.
		for _, size := range cfg.Sizes {
			payload := make([]byte, size)
			if err := pingPong(fst, rst, payload); err != nil { // warmup
				fail(err)
				return
			}
			start := env.Now()
			for i := 0; i < cfg.Rounds; i++ {
				if err := pingPong(fst, rst, payload); err != nil {
					fail(err)
					return
				}
			}
			elapsed := env.Now() - start
			row.Bandwidth[size] = float64(size) * float64(cfg.Rounds) / elapsed.Seconds()
		}
		done = true
		_ = fwd.Close(env)
	})

	if err := tb.K.Run(); err != nil {
		return row, err
	}
	if benchErr != nil {
		return row, benchErr
	}
	if !done {
		return row, fmt.Errorf("measurement did not complete")
	}
	return row, nil
}

// pingPong sends payload (with a 4-byte size header) forward and waits for
// the 1-byte ack on the reverse channel. It only reads payload, so a caller
// sends the same slice every round.
func pingPong(fwd, rev transport.Stream, payload []byte) error {
	size := len(payload)
	hdr := [4]byte{byte(size >> 24), byte(size >> 16), byte(size >> 8), byte(size)}
	if _, err := fwd.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := fwd.Write(payload); err != nil {
		return err
	}
	var ack [1]byte
	_, err := readFull(rev, ack[:])
	return err
}

// serveT2 drains sized transfers from fwd and acks each on rev.
func serveT2(env transport.Env, fwd, rev transport.Conn) {
	fst := transport.Stream{Env: env, Conn: fwd}
	rst := transport.Stream{Env: env, Conn: rev}
	hdr := make([]byte, 4)
	buf := make([]byte, 64*1024)
	for {
		if _, err := readFull(fst, hdr); err != nil {
			_ = fwd.Close(env)
			_ = rev.Close(env)
			return
		}
		size := int(hdr[0])<<24 | int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3])
		remaining := size
		for remaining > 0 {
			n := len(buf)
			if n > remaining {
				n = remaining
			}
			got, err := fst.Read(buf[:n])
			if err != nil {
				_ = fwd.Close(env)
				_ = rev.Close(env)
				return
			}
			remaining -= got
		}
		if _, err := rst.Write([]byte{1}); err != nil {
			return
		}
	}
}

func readFull(st transport.Stream, b []byte) (int, error) {
	total := 0
	for total < len(b) {
		n, err := st.Read(b[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func writeAddr(st transport.Stream, addr string) error {
	if len(addr) > 255 {
		return fmt.Errorf("bench: address too long")
	}
	if _, err := st.Write([]byte{byte(len(addr))}); err != nil {
		return err
	}
	_, err := st.Write([]byte(addr))
	return err
}

func readAddr(st transport.Stream) (string, error) {
	one := make([]byte, 1)
	if _, err := readFull(st, one); err != nil {
		return "", err
	}
	b := make([]byte, one[0])
	if _, err := readFull(st, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// FormatTable2 renders rows like the paper's Table 2.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2. Communication latency and bandwidth\n")
	fmt.Fprintf(&b, "%-24s %-9s %12s %18s %18s\n", "path", "mode", "latency", "bw (4096B msg)", "bw (1MB msg)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-9s %12s %18s %18s\n",
			r.Path, r.Mode(),
			fmtLatency(r.Latency),
			fmtBandwidth(r.Bandwidth[4096]),
			fmtBandwidth(r.Bandwidth[1<<20]))
	}
	return b.String()
}

func fmtLatency(d time.Duration) string {
	return fmt.Sprintf("%.2f msec", float64(d)/float64(time.Millisecond))
}

func fmtBandwidth(bps float64) string {
	switch {
	case bps >= 1<<20:
		return fmt.Sprintf("%.2f MB/sec", bps/(1<<20))
	case bps > 0:
		return fmt.Sprintf("%.1f KB/sec", bps/(1<<10))
	default:
		return "n/a"
	}
}
