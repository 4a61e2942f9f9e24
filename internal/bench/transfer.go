package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/gass"
	"nxcluster/internal/gridftp"
	"nxcluster/internal/proxy"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// The gridftp sweep runs on a modernized wide-area path rather than the
// paper's 1.5 Mbps IMnet: at 187 KB/s and 3.5 ms the bandwidth-delay product
// is under one segment, so TCP congestion control never engages and parallel
// streams have nothing to recover. The constants below model the kind of
// path GridFTP was designed for — high bandwidth, long RTT, lossy — while
// the topology, firewall, and relay daemons stay the paper's Figure 5.
const (
	// TransferWANBandwidth is the sweep's wide-area bandwidth (8 MB/s).
	TransferWANBandwidth = int64(8_000_000)
	// TransferWANLatency is the sweep's one-way wide-area latency. With the
	// bandwidth above, the BDP (~400 KB) exceeds one connection's 256 KiB
	// flow-control window, so a single stream cannot fill the pipe even
	// loss-free.
	TransferWANLatency = 25 * time.Millisecond
	// TransferRelayPerBuffer keeps the relay pipeline faster than the WAN so
	// the wide-area link, not relay CPU, is the measured bottleneck.
	TransferRelayPerBuffer = 200 * time.Microsecond
)

// TransferConfig parameterizes the parallel-stream transfer sweep.
type TransferConfig struct {
	// FileSize is the bytes moved per point (default 2 MiB).
	FileSize int
	// Streams are the parallel data-channel counts swept (default 1,2,4,8).
	Streams []int
	// LossRates are the WAN packet-loss probabilities swept
	// (default 0, 0.005, 0.02).
	LossRates []float64
	// Seed seeds the flow model's loss process (default 1); every point
	// uses the same seed so curves differ only by configuration.
	Seed uint64
	// Workers bounds sweep parallelism (0 = GOMAXPROCS). Points run on
	// independent kernels, so parallelism cannot change results.
	Workers int
}

func (c TransferConfig) withDefaults() TransferConfig {
	if c.FileSize <= 0 {
		c.FileSize = 2 << 20
	}
	if len(c.Streams) == 0 {
		c.Streams = []int{1, 2, 4, 8}
	}
	if len(c.LossRates) == 0 {
		c.LossRates = []float64{0, 0.005, 0.02}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TransferPoint is one measured transfer: a file pulled from ETL-Sun to
// RWCP-Sun through the Nexus Proxy relays over the congestion-modeled WAN.
type TransferPoint struct {
	// Streams is the parallel data-channel count.
	Streams int
	// LossRate is the WAN loss probability.
	LossRate float64
	// Bytes is the file size moved.
	Bytes int64
	// Elapsed is the virtual transfer time.
	Elapsed time.Duration
	// Goodput is application bytes per virtual second.
	Goodput float64
	// Drops, Retransmits and Cuts are the network's flow-model counters.
	Drops, Retransmits, Cuts int64
}

// RunTransfer sweeps parallel-stream count against WAN loss rate. Each point
// boots a fresh Figure 5 testbed with the flow model enabled, serves a file
// from ETL-Sun over gridftp, and pulls it from RWCP-Sun with every control
// and data channel relayed through the firewall proxy. The points serve one
// source file: every point's store adopts the same slice, which the servers
// only read (through gass.Store.View), and every point checks each block it
// receives against that slice instead of keeping a copy.
func RunTransfer(cfg TransferConfig) ([]TransferPoint, error) {
	cfg = cfg.withDefaults()
	file := make([]byte, cfg.FileSize)
	gass.FillPattern(file, 7, 10)
	points := make([]TransferPoint, len(cfg.LossRates)*len(cfg.Streams))
	err := RunParallel(len(points), cfg.Workers, func(i int) error {
		loss := cfg.LossRates[i/len(cfg.Streams)]
		streams := cfg.Streams[i%len(cfg.Streams)]
		pt, err := transferPoint(cfg, file, loss, streams)
		if err != nil {
			return fmt.Errorf("loss %.3f streams %d: %w", loss, streams, err)
		}
		points[i] = pt
		return nil
	})
	return points, err
}

// transferPoint measures one (loss, streams) combination on its own kernel,
// serving file, which it does not modify.
func transferPoint(cfg TransferConfig, file []byte, loss float64, streams int) (TransferPoint, error) {
	tb := cluster.NewTestbed(cluster.Options{
		RelayPerBuffer: TransferRelayPerBuffer,
		WANLatency:     TransferWANLatency,
		WANBandwidth:   TransferWANBandwidth,
		WANLossRate:    loss,
		FlowModel:      &simnet.FlowConfig{Seed: cfg.Seed},
	})
	defer tb.K.Shutdown()

	store := gass.NewStore()
	if err := store.Adopt("/bulk/file.bin", file); err != nil { // read-only, shared by the sweep's stores
		return TransferPoint{}, err
	}
	// ETL hosts are outside the firewall and bind directly; only the client
	// side relays through the proxy.
	srv := gridftp.NewServer(store, proxy.Dialer{})
	addr := make(chan string, 1)
	tb.Node(cluster.ETLSun).SpawnDaemonOn("gridftp-server", func(env transport.Env) {
		_ = srv.Serve(env, 7040, func(a string) { addr <- a })
	})

	pt := TransferPoint{Streams: streams, LossRate: loss}
	var benchErr error
	tb.Node(cluster.RWCPSun).SpawnOn("gridftp-client", func(env transport.Env) {
		for len(addr) == 0 {
			env.Sleep(time.Millisecond)
		}
		url := gridftp.URL(<-addr, "/bulk/file.bin")
		cl := &gridftp.Client{Dialer: tb.Dialer(), Streams: streams}
		stats, err := cl.GetTo(env, url, verifier(file))
		if err != nil {
			benchErr = err
			return
		}
		if stats.Bytes != int64(cfg.FileSize) {
			benchErr = fmt.Errorf("received %d bytes, want %d", stats.Bytes, cfg.FileSize)
			return
		}
		pt.Bytes = stats.Bytes
		pt.Elapsed = stats.Elapsed
		pt.Goodput = stats.Goodput()
	})
	if err := tb.K.Run(); err != nil {
		return pt, err
	}
	if benchErr != nil {
		return pt, benchErr
	}
	fs := tb.Net.FlowStats()
	pt.Drops, pt.Retransmits, pt.Cuts = fs.Drops, fs.Retransmits, fs.Cuts
	return pt, nil
}

// verifier is the destination a sweep point downloads into: it compares each
// block with the same range of the source file and keeps nothing, so a
// point holds one copy of the file, the one it serves.
type verifier []byte

func (v verifier) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(v)) || int64(len(p)) > int64(len(v))-off {
		return 0, fmt.Errorf("block [%d,+%d) outside the %d-byte source", off, len(p), len(v))
	}
	src := v[off : off+int64(len(p))]
	if !bytes.Equal(p, src) {
		i := 0
		for p[i] == src[i] {
			i++
		}
		return 0, fmt.Errorf("block [%d,+%d) differs from the source at byte %d", off, len(p), off+int64(i))
	}
	return len(p), nil
}

// FormatTransfer renders the sweep as throughput-vs-streams curves, one
// block per loss rate.
func FormatTransfer(points []TransferPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "GridFTP-style parallel-stream transfer through the Nexus Proxy")
	fmt.Fprintf(&b, "WAN %s one-way, %s, TCP-Reno flow model\n",
		TransferWANLatency, fmtBandwidth(float64(TransferWANBandwidth)))
	var lastLoss float64 = -1
	for _, pt := range points {
		if pt.LossRate != lastLoss {
			fmt.Fprintf(&b, "loss %.2f%%\n", pt.LossRate*100)
			fmt.Fprintf(&b, "  %8s %12s %12s %8s %8s %6s\n",
				"streams", "elapsed", "goodput", "drops", "retrans", "cuts")
			lastLoss = pt.LossRate
		}
		fmt.Fprintf(&b, "  %8d %12s %12s %8d %8d %6d\n",
			pt.Streams, pt.Elapsed, fmtBandwidth(pt.Goodput),
			pt.Drops, pt.Retransmits, pt.Cuts)
	}
	return b.String()
}
