package fleet

import (
	"runtime"
	"testing"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/obs/causal"
)

func smallConfig() Config {
	return Config{
		Sites:        4,
		HostsPerSite: 8,
		CPUsPerHost:  2,
		Jobs:         2000,
		Seed:         42,
		Arrivals:     RateShape{Kind: RateConstant, Rate: 40},
		Sizes:        SizeDist{Kind: DistPareto, Alpha: 1.5, Min: 200 * time.Millisecond, Max: 30 * time.Second},
		Heartbeat:    5 * time.Second,
	}
}

func runFleet(t *testing.T, cfg Config) Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return e.Result()
}

// TestEngineEndToEnd: a small fleet run completes every job, accumulates
// sane latency stats, publishes into MDS, and beats every host.
func TestEngineEndToEnd(t *testing.T) {
	cfg := smallConfig()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := e.Result()
	if r.Jobs != cfg.Jobs {
		t.Fatalf("completed %d of %d jobs", r.Jobs, cfg.Jobs)
	}
	if r.Hosts != cfg.Sites*cfg.HostsPerSite {
		t.Fatalf("Hosts = %d, want %d", r.Hosts, cfg.Sites*cfg.HostsPerSite)
	}
	if r.Events == 0 || r.Makespan <= 0 {
		t.Fatalf("degenerate run: events=%d makespan=%v", r.Events, r.Makespan)
	}
	// Latency is bounded below by the two-way core<->host control path.
	if r.P50Lat <= 0 || r.P50Lat > r.P99Lat || r.P99Lat > r.MaxLat {
		t.Fatalf("latency ordering broken: p50=%v p99=%v max=%v", r.P50Lat, r.P99Lat, r.MaxLat)
	}
	if r.MeanLat < r.P50Lat/10 {
		t.Fatalf("mean %v implausibly small vs p50 %v", r.MeanLat, r.P50Lat)
	}
	if r.Ticks == 0 {
		t.Fatal("no heartbeat ticks fired")
	}
	// Every host beats, so none are suspect or down.
	if e.Monitor().SuspectCount() != 0 || e.Monitor().DownCount() != 0 {
		t.Fatalf("batched beats left suspects=%d down=%d",
			e.Monitor().SuspectCount(), e.Monitor().DownCount())
	}
	// MDS holds the per-site aggregates (one row per site at minimum).
	if r.DirEntries < cfg.Sites {
		t.Fatalf("directory has %d entries, want >= %d site aggregates", r.DirEntries, cfg.Sites)
	}
}

// TestEngineOverload: an arrival rate far above capacity must queue at the
// gateways (queuedPeak > 0) and still finish every job.
func TestEngineOverload(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 1500
	cfg.Arrivals = RateShape{Kind: RateConstant, Rate: 400} // 10x capacity
	cfg.Sizes = SizeDist{Kind: DistFixed, Mean: 2 * time.Second}
	r := runFleet(t, cfg)
	if r.Jobs != cfg.Jobs {
		t.Fatalf("completed %d of %d jobs", r.Jobs, cfg.Jobs)
	}
	if r.QueuedPeak == 0 {
		t.Fatal("10x-overload run never queued at a gateway")
	}
	if r.P99Lat <= 4*time.Second {
		t.Fatalf("overload p99 %v suspiciously small (no queueing delay?)", r.P99Lat)
	}
}

// TestEngineDeterminism: double-run fingerprint equality for the same seed
// — including under a different GOMAXPROCS — and inequality across seeds.
func TestEngineDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Arrivals = RateShape{Kind: RateFlashCrowd, Rate: 30, Peak: 4,
		From: 10 * time.Second, To: 25 * time.Second}
	a := runFleet(t, cfg)
	b := runFleet(t, cfg)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same seed diverged: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
	if a != b {
		t.Fatalf("full results differ despite equal fingerprints:\n%+v\n%+v", a, b)
	}

	prev := runtime.GOMAXPROCS(1)
	c := runFleet(t, cfg)
	runtime.GOMAXPROCS(prev)
	if c.Fingerprint != a.Fingerprint {
		t.Fatalf("GOMAXPROCS=1 run diverged: %016x vs %016x", c.Fingerprint, a.Fingerprint)
	}

	cfg.Seed = 43
	d := runFleet(t, cfg)
	if d.Fingerprint == a.Fingerprint {
		t.Fatal("different seeds produced the same fingerprint")
	}
}

// TestEngineTraceSampling: with TraceSample=n, exactly ceil(jobs/n) causal
// job spans open and close, and the causal layer can extract their durations.
func TestEngineTraceSampling(t *testing.T) {
	cfg := smallConfig()
	cfg.Jobs = 100
	cfg.TraceSample = 10
	cfg.Obs = obs.New()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	f := causal.Build(cfg.Obs.Events())
	durs := causal.SpanDurations(f, "fleet/job")
	if len(durs) != 10 {
		t.Fatalf("sampled %d job spans, want 10", len(durs))
	}
	for _, d := range durs {
		if d <= 0 {
			t.Fatalf("non-positive sampled job duration %v", d)
		}
	}
	if p99 := causal.Percentile(durs, 99); p99 < causal.Percentile(durs, 50) {
		t.Fatalf("p99 %v < p50", p99)
	}
}

// TestConfigValidate is the strict-decode table for fleet blocks.
func TestConfigValidate(t *testing.T) {
	ok := smallConfig()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero sites", func(c *Config) { c.Sites = 0 }},
		{"zero hosts", func(c *Config) { c.HostsPerSite = 0 }},
		{"host cap overflow", func(c *Config) { c.Sites = 1 << 12; c.HostsPerSite = 1 << 12 }},
		{"negative cpus", func(c *Config) { c.CPUsPerHost = -1 }},
		{"zero jobs", func(c *Config) { c.Jobs = 0 }},
		{"negative heartbeat", func(c *Config) { c.Heartbeat = -time.Second }},
		{"negative trace sample", func(c *Config) { c.TraceSample = -1 }},
		{"bad rate", func(c *Config) { c.Arrivals.Rate = 0 }},
		{"bad distribution", func(c *Config) { c.Sizes.Kind = "zipf" }},
	}
	for _, tc := range cases {
		cfg := smallConfig()
		tc.mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
	}
	// sites*hosts right at the cap stays valid.
	cfg := smallConfig()
	cfg.Sites = 1 << 10
	cfg.HostsPerSite = 1 << 10
	if err := cfg.Validate(); err != nil {
		t.Errorf("config at the host cap rejected: %v", err)
	}
}

// TestEngineFingerprintPinned runs the 512-host shape the benchmark uses for
// its scale comparison (16 sites x 32 hosts, 50k jobs at 0.85 utilisation,
// seed 1) and pins its fingerprint and event count. Every kernel event and
// message hop feeds the fingerprint, so a change in firing order — the heap
// and lane merge, the message path — fails here in well under a second,
// without the 10k-host run.
func TestEngineFingerprintPinned(t *testing.T) {
	const sites, hosts = 16, 32
	r := runFleet(t, Config{
		Sites: sites, HostsPerSite: hosts, Jobs: 50_000, Seed: 1,
		Arrivals:  RateShape{Kind: RateConstant, Rate: 0.85 * sites * hosts * 2 / 10.0},
		Sizes:     SizeDist{Kind: DistPareto, Alpha: 1.5, Min: time.Second, Max: 5 * time.Minute},
		Heartbeat: 30 * time.Second,
	})
	if r.Fingerprint != 0xb4a74a85d6275267 || r.Events != 300_028 {
		t.Fatalf("fingerprint %016x, %d events; want b4a74a85d6275267, 300028", r.Fingerprint, r.Events)
	}
}

// TestEngineAllocsPerJob pins a run's allocations per job at the count
// measured before fleet messages moved onto resolved paths: paths, transfer
// records, kernel events and job records are all reused, so what remains is
// the per-tick MDS publishing, whose count grows with the makespan. Set-up
// and first-use path resolution are taken out by difference: a run of 2n
// jobs against a run of n. The count is process-wide, and the race detector
// drops sync.Pool entries at random (2.199–2.217 a job under -race at the
// parent), so there is a twentieth of an allocation of slack; anything
// allocating per message or per job costs at least one.
func TestEngineAllocsPerJob(t *testing.T) {
	const n, want = 2000, 2.195
	run := func(jobs int) float64 {
		cfg := smallConfig()
		cfg.Jobs = jobs
		return testing.AllocsPerRun(1, func() { runFleet(t, cfg) })
	}
	if per := (run(2*n) - run(n)) / n; per > want+0.05 {
		t.Errorf("%.3f allocations per job, want <= %v", per, want)
	}
}
