package chaos

import (
	"bytes"
	"fmt"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/gass"
	"nxcluster/internal/gridftp"
	"nxcluster/internal/obs"
	"nxcluster/internal/proxy"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// TransferOutageConfig describes a bulk-transfer chaos run: a gridftp
// download through the firewall proxy over the congestion-modeled WAN, with
// a wide-area outage dropped into the middle of it.
type TransferOutageConfig struct {
	// FileSize is the bytes served from ETL-Sun (default 1 MiB).
	FileSize int
	// Streams is the client's parallel data-channel count (default 4).
	Streams int
	// OutageStart and OutageEnd bound the WAN outage window
	// (defaults 300 ms and 1.3 s).
	OutageStart, OutageEnd time.Duration
	// ProgressTimeout is the client's stall watchdog (default 250 ms):
	// longer than the proxied connection setup over the 50 ms-RTT WAN, but
	// well under the outage so the dead attempt is torn down instead of
	// waiting the outage out, proving the restart-marker path did the
	// recovery.
	ProgressTimeout time.Duration
	// Horizon bounds the kernel run (default 30 s).
	Horizon time.Duration
	// Seed seeds the flow model's loss stream (default 1). The scenario
	// runs lossless by default; the outage is the only disturbance.
	Seed uint64
}

func (c TransferOutageConfig) withDefaults() TransferOutageConfig {
	if c.FileSize <= 0 {
		c.FileSize = 1 << 20
	}
	if c.Streams <= 0 {
		c.Streams = 4
	}
	if c.OutageStart <= 0 {
		c.OutageStart = 300 * time.Millisecond
	}
	if c.OutageEnd <= c.OutageStart {
		c.OutageEnd = c.OutageStart + time.Second
	}
	if c.ProgressTimeout <= 0 {
		c.ProgressTimeout = 250 * time.Millisecond
	}
	if c.Horizon <= 0 {
		c.Horizon = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TransferOutageReport is the outcome of one transfer chaos run.
type TransferOutageReport struct {
	// Completed reports whether the download finished before the horizon.
	Completed bool
	// BytesMatch reports whether the received file is byte-identical to the
	// served one — the invariant the restart-marker ledger must preserve
	// across the interruption.
	BytesMatch bool
	// Resumes counts restart-marker resumes the client performed (>= 1 when
	// the outage caught the transfer mid-flight).
	Resumes int
	// Elapsed is the transfer's virtual duration, outage included.
	Elapsed time.Duration
	// StallAborts counts watchdog-initiated connection teardowns observed in
	// the trace.
	StallAborts int
	// TraceHash fingerprints the full event trace; equal configs must yield
	// equal hashes.
	TraceHash uint64
	// Err is the client's final error, nil on success.
	Err error
}

// RunTransferOutage executes the scenario: serve a file from ETL-Sun, pull
// it from RWCP-Sun through the Nexus Proxy with parallel streams, cut the
// WAN mid-transfer, and verify the transfer resumes from its restart markers
// and delivers a byte-identical file.
func RunTransferOutage(cfg TransferOutageConfig) (*TransferOutageReport, error) {
	cfg = cfg.withDefaults()
	o := obs.New()
	tb := cluster.NewTestbed(cluster.Options{
		RelayPerBuffer: 200 * time.Microsecond,
		WANLatency:     25 * time.Millisecond,
		WANBandwidth:   8_000_000,
		FlowModel:      &simnet.FlowConfig{Seed: cfg.Seed},
		Obs:            o,
	})
	defer tb.K.Shutdown()

	store := gass.NewStore()
	data := make([]byte, cfg.FileSize)
	gass.FillPattern(data, 11, 9)
	// The store owns data from here; it is only read (BytesMatch) afterwards.
	if err := store.Adopt("/bulk/chaos.bin", data); err != nil {
		return nil, err
	}
	srv := gridftp.NewServer(store, proxy.Dialer{})
	addr := make(chan string, 1)
	tb.Node(cluster.ETLSun).SpawnDaemonOn("gridftp-server", func(env transport.Env) {
		_ = srv.Serve(env, 7040, func(a string) { addr <- a })
	})

	rep := &TransferOutageReport{}
	tb.Node(cluster.RWCPSun).SpawnOn("gridftp-client", func(env transport.Env) {
		for len(addr) == 0 {
			env.Sleep(time.Millisecond)
		}
		url := gridftp.URL(<-addr, "/bulk/chaos.bin")
		cl := &gridftp.Client{
			Dialer:          tb.Dialer(),
			Streams:         cfg.Streams,
			ProgressTimeout: cfg.ProgressTimeout,
			Retries:         8,
		}
		got, stats, err := cl.Get(env, url)
		rep.Err = err
		if err != nil {
			return
		}
		rep.Completed = true
		rep.BytesMatch = bytes.Equal(got, data)
		rep.Resumes = stats.Resumes
		rep.Elapsed = stats.Elapsed
	})

	plan := (&simnet.FaultPlan{}).LinkOutage(cluster.RWCPOuter, "etl-gw", cfg.OutageStart, cfg.OutageEnd)
	if err := tb.Net.ApplyPlan(plan); err != nil {
		return nil, err
	}
	tb.K.RunUntil(cfg.Horizon)

	for _, e := range o.Events() {
		if e.Cat == "gridftp" && e.Name == "stall-abort" {
			rep.StallAborts++
		}
	}
	rep.TraceHash = o.Hash()
	if rep.Err == nil && !rep.Completed {
		rep.Err = fmt.Errorf("chaos: transfer did not finish before the %v horizon", cfg.Horizon)
	}
	return rep, nil
}
