package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/cluster"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// dataplane is the simulated data plane: the Table 2 bandwidth sweep (six
// message sizes from 1 KiB, where per-buffer relay cost dominates, to 1 MiB,
// where the pipeline does; LAN and WAN; direct and proxied) and then the
// gridftp congestion sweep, one 64 MiB transfer per stream count and loss
// rate. table4-cap5 moves few bytes, so link pumps, the in-sim relay pump,
// the Reno flow model and MODE E show here and not there. The seed goes to
// the sweep's kernels and to the flow model's loss process.
type dataplane struct {
	cfg      runConfig
	rounds   int
	fileSize int
	exp      *expected
}

var (
	transferStreams = []int{1, 2, 4, 8}
	transferLoss    = []float64{0, 0.005, 0.02}
)

func dataplaneDef() workloadDef {
	return workloadDef{
		name: "dataplane-sim",
		work: "simulated payload MB moved (sweep messages + transferred files)",
		op:   "one gridftp transfer point (bench.RunTransfer, one stream count x one loss rate)",
		make: func(cfg runConfig) (workload, error) {
			w := &dataplane{cfg: cfg, rounds: 256, fileSize: 64 << 20}
			if cfg.quick {
				w.rounds, w.fileSize = 4, 1<<20
			}
			var err error
			w.exp, err = loadExpected(cfg)
			return w, err
		},
		probes: []probe{
			{"simnet.stream", probeSimnetStream},
			{"proxy.sim_connect", probeSimProxyConnect},
			{"proxy.decomposition", probeDecomposition},
			{"table2.paper", probeTable2Paper},
		},
	}
}

// setup warms the runtime with a two-round sweep and one small transfer.
func (w *dataplane) setup(p *pass) error {
	if _, err := bench.RunBandwidthSweep(bench.Table2Config{Rounds: 2, Workers: 1}); err != nil {
		return err
	}
	_, err := bench.RunTransfer(bench.TransferConfig{
		FileSize: 1 << 20, Streams: []int{2}, LossRates: []float64{0.005}, Seed: w.cfg.seed, Workers: 1,
	})
	return err
}

func (w *dataplane) run(p *pass) error {
	var sweeps []bench.BandwidthSweep
	var sweepErr error
	type point struct {
		pt  bench.TransferPoint
		err error
		sec float64
	}
	points := make([]point, 0, len(transferStreams)*len(transferLoss))
	p.timed(func() {
		id := p.tr.begin("bench.RunBandwidthSweep", p.span)
		sweeps, sweepErr = bench.RunBandwidthSweep(bench.Table2Config{
			Rounds: w.rounds, Workers: 1, Options: cluster.Options{Seed: w.cfg.seed},
		})
		p.tr.end(id)
		for _, loss := range transferLoss {
			for _, streams := range transferStreams {
				id := p.tr.begin("bench.RunTransfer", p.span)
				t0 := time.Now()
				pts, err := bench.RunTransfer(bench.TransferConfig{
					FileSize: w.fileSize, Streams: []int{streams}, LossRates: []float64{loss},
					Seed: w.cfg.seed, Workers: 1,
				})
				pt := point{err: err, sec: time.Since(t0).Seconds()}
				p.tr.end(id)
				if err == nil {
					pt.pt = pts[0]
				}
				points = append(points, pt)
			}
		}
	})

	// One operation per measured point: a sweep point is a size on a path,
	// direct and proxied; a transfer point is one file pulled.
	digest := fnv.New64a()
	var bytes float64
	if sweepErr != nil {
		n := 2 * len(bench.SweepSizes)
		p.attempted += n
		p.fail(n, "RunBandwidthSweep: %v", sweepErr)
	}
	for _, sw := range sweeps {
		for _, pt := range sw.Points {
			p.attempted++
			fmt.Fprintf(digest, "%s|%d|%v|%v\n", sw.Path, pt.Size, pt.Direct, pt.Indirect)
			// Each of the sweep's rounds moves the message once on the
			// direct testbed and once on the proxied one.
			bytes += 2 * float64(w.rounds) * float64(pt.Size)
			if !(pt.Indirect > 0 && pt.Indirect <= pt.Direct) {
				p.fail(1, "%s at %d bytes: proxied bandwidth %v is not within (0, direct %v]",
					sw.Path, pt.Size, pt.Indirect, pt.Direct)
			}
		}
	}
	for i, pt := range points {
		p.attempted++
		p.opsMS = append(p.opsMS, pt.sec*1e3)
		streams, loss := transferStreams[i%len(transferStreams)], transferLoss[i/len(transferStreams)]
		if pt.err != nil {
			p.fail(1, "RunTransfer streams=%d loss=%v: %v", streams, loss, pt.err)
			continue
		}
		if pt.pt.Bytes != int64(w.fileSize) {
			p.fail(1, "RunTransfer streams=%d loss=%v moved %d bytes, want %d", streams, loss, pt.pt.Bytes, w.fileSize)
		}
		fmt.Fprintf(digest, "s=%d|loss=%v|%d|%d|%v\n", streams, loss, pt.pt.Bytes, pt.pt.Elapsed, pt.pt.Goodput)
		bytes += float64(pt.pt.Bytes)
		if loss == 0.02 && (streams == 1 || streams == 8) {
			suffix := ".s" + strconv.Itoa(streams)
			p.set("gridftp.host_mb_s"+suffix, float64(pt.pt.Bytes)/1e6/pt.sec)
			p.set("gridftp.goodput_kbps"+suffix, pt.pt.Goodput/1024)
		}
	}
	if w.exp != nil {
		if got := strconv.FormatUint(digest.Sum64(), 16); got != w.exp.DataplaneDigest {
			p.fail(1, "dataplane-sim digest %s, expected.json has %s: a simulated bandwidth or goodput moved", got, w.exp.DataplaneDigest)
		}
	}
	p.work += bytes / 1e6
	p.workSec += p.wall
	return nil
}

func (w *dataplane) teardown() {}

// probeSimnetStream streams 1 MiB messages between two simulated hosts,
// first on the plain data plane and then under the Reno flow model with 2 %
// segment loss, and reports virtual bytes moved per host second.
func probeSimnetStream(c *probeCtx) error {
	const size = 1 << 20
	n := scaled(c.cfg, 64, 4)
	stream := func(flow bool) (cost, error) {
		var total cost
		for i := 0; i < n; i++ {
			link := fastLink
			if flow {
				link.LossRate = 0.02
			}
			k, net := twoHosts(link)
			if flow {
				net.EnableFlowModel(simnet.FlowConfig{Seed: c.cfg.seed})
			}
			var probeErr error
			net.Node("b").SpawnDaemonOn("sink", func(env transport.Env) {
				l, err := env.Listen(1)
				if err != nil {
					probeErr = err
					return
				}
				conn, err := l.Accept(env)
				if err != nil {
					return
				}
				if err := drain(env, conn, make([]byte, 64<<10), size); err != nil {
					probeErr = err
					return
				}
				_, _ = conn.Write(env, []byte{1})
			})
			net.Node("a").SpawnOn("source", func(env transport.Env) {
				env.Sleep(time.Millisecond)
				conn, err := env.Dial("b:1")
				if err != nil {
					probeErr = err
					return
				}
				if _, err := conn.Write(env, make([]byte, size)); err != nil {
					probeErr = err
					return
				}
				_, probeErr = conn.Read(env, make([]byte, 1))
			})
			var runErr error
			cst := measure(func() { runErr = k.Run() })
			k.Shutdown()
			if probeErr != nil {
				return total, probeErr
			}
			if runErr != nil {
				return total, runErr
			}
			total.ns += cst.ns
			total.mallocs += cst.mallocs
		}
		return total, nil
	}
	mb := float64(n) * size / 1e6
	plain, err := stream(false)
	if err != nil {
		return err
	}
	c.set("simnet.stream_host_mb_s", mb/(plain.ns/1e9))
	c.set("simnet.stream_allocs_per_mb", plain.mallocs/mb)
	lossy, err := stream(true)
	if err != nil {
		return err
	}
	c.set("simnet.flow_host_mb_s", mb/(lossy.ns/1e9))
	return nil
}

// probeSimProxyConnect times NXProxyConnect inside the simulator: a process
// on RWCP-Sun opens and closes connections to ETL-Sun through the relays.
func probeSimProxyConnect(c *probeCtx) error {
	n := scaled(c.cfg, 1_000, 20)
	tb := cluster.NewTestbed(cluster.Options{Seed: c.cfg.seed})
	defer tb.Shutdown()
	var probeErr error
	tb.Node(cluster.ETLSun).SpawnDaemonOn("sink", func(env transport.Env) {
		l, err := env.Listen(9000)
		if err != nil {
			probeErr = err
			return
		}
		for {
			conn, err := l.Accept(env)
			if err != nil {
				return
			}
			_ = conn.Close(env)
		}
	})
	dialer := tb.Dialer()
	tb.Node(cluster.RWCPSun).SpawnOn("client", func(env transport.Env) {
		env.Sleep(time.Millisecond)
		addr := transport.JoinAddr(cluster.ETLSun, 9000)
		for i := 0; i < n; i++ {
			conn, err := dialer.Dial(env, addr)
			if err != nil {
				probeErr = err
				return
			}
			_ = conn.Close(env)
		}
	})
	var runErr error
	cst := measure(func() { runErr = tb.Run() })
	if probeErr != nil {
		return probeErr
	}
	if runErr != nil {
		return runErr
	}
	c.set("proxy.sim_connect_ns", cst.ns/float64(n))
	return nil
}

// probeDecomposition reads, off the program's own latency decomposition,
// the share of the proxied LAN round trip spent in relay rows.
func probeDecomposition(c *probeCtx) error {
	ds, err := bench.RunDecomposition(bench.Table2Config{Workers: 1})
	if err != nil {
		return err
	}
	for _, d := range ds {
		if !d.Indirect || !strings.Contains(d.Path, "COMPaS") {
			continue
		}
		var relay time.Duration
		for _, r := range d.Rows {
			if strings.HasPrefix(r.Label, "relay/") {
				relay += r.Delta
			}
		}
		c.set("proxy.vt_relay_share_pct", float64(relay)/float64(d.RTT)*100)
		return nil
	}
	return fmt.Errorf("decomposition has no proxied RWCP-Sun <-> COMPaS point")
}

// paperTable2 holds the ten legible cells of the paper's Table 2, as listed
// in EXPERIMENTS.md: latency in ms, bandwidth in bytes/s (the paper's KB and
// MB are powers of two). Row order is bench.RunTable2's.
var paperTable2 = []struct {
	latencyMS    float64
	bw4K, bw1M   float64 // 0 where the paper's figure is illegible
	path, detail string
}{
	{0.41, 3.29 * (1 << 20), 6.32 * (1 << 20), "RWCP-Sun <-> COMPaS", "direct"},
	{25.0, 70.5 * 1024, 460 * 1024, "RWCP-Sun <-> COMPaS", "indirect"},
	{3.9, 0, 161 * 1024, "RWCP-Sun <-> ETL-Sun", "direct"},
	{25.1, 0, 152 * 1024, "RWCP-Sun <-> ETL-Sun", "indirect"},
}

// probeTable2Paper is the accuracy check the data plane carries: the mean
// relative distance of the simulated Table 2 from the paper's cells.
func probeTable2Paper(c *probeCtx) error {
	rows, err := bench.RunTable2(bench.Table2Config{Workers: 1})
	if err != nil {
		return err
	}
	if len(rows) != len(paperTable2) {
		return fmt.Errorf("RunTable2 returned %d rows, want %d", len(rows), len(paperTable2))
	}
	var sum float64
	var cells int
	cell := func(sim, paper float64) {
		if paper > 0 {
			sum += math.Abs(sim-paper) / paper
			cells++
		}
	}
	for i, want := range paperTable2 {
		r := rows[i]
		if r.Path != want.path || r.Mode() != want.detail {
			return fmt.Errorf("RunTable2 row %d is %s (%s), want %s (%s)", i, r.Path, r.Mode(), want.path, want.detail)
		}
		cell(float64(r.Latency)/float64(time.Millisecond), want.latencyMS)
		cell(r.Bandwidth[4096], want.bw4K)
		cell(r.Bandwidth[1<<20], want.bw1M)
	}
	c.set("paper_err_pct", sum/float64(cells)*100)
	return nil
}
