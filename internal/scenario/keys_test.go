package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/cluster"
	"nxcluster/internal/fleet"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/proxy"
	"nxcluster/internal/rmf"
	"nxcluster/internal/simnet"
)

// everyTopologyKey sets each key of the topology section and its two nested
// blocks to a distinct non-default value; wantTopology is what the run must
// be handed for it.
const everyTopologyKey = `
topology:
  extra_sites: 2
  open_firewall: true
  secret: s3cret
  seed: 7
  relay_per_buffer: 11us
  relay_buf_bytes: 4096
  wan: {latency: 13ms, bandwidth: 170000, loss: 0.25}
  flow: {seed: 19}
`

func wantTopology() cluster.Options {
	return cluster.Options{
		ExtraSites:     2,
		OpenFirewall:   true,
		Secret:         "s3cret",
		Seed:           7,
		RelayPerBuffer: 11 * time.Microsecond,
		RelayBufBytes:  4096,
		WANLatency:     13 * time.Millisecond,
		WANBandwidth:   170000,
		WANLossRate:    0.25,
		FlowModel:      &simnet.FlowConfig{Seed: 19},
	}
}

// TestEveryKeyReachesItsConfig pins the wiring from file to run: per kind, one
// document sets every key of every block to a distinct non-default value, and
// the config its kind entry hands the runner must equal the literal — so a
// key that decodes into the wrong field, or into none, fails here and not in
// a fingerprint three layers up.
func TestEveryKeyReachesItsConfig(t *testing.T) {
	cases := []struct {
		kind, doc string
		want      any
	}{
		{"chaos", everyTopologyKey + `
workload:
  items: 21
  capacity: 3
  system: local
  use_proxy: false
  horizon: 23s
  control_plane: true
  job_runtime: 29s
  job_compute: true
  extra_jobs: 31
  suspect_window: 37s
  beat_cost: 41ms
  hbm: {late_after: 43s, down_after: 47s}
  ft:
    interval: 53
    steal_unit: 59
    node_cost: 61us
    slave_timeout: 67s
    steal_timeout: 71s
    steal_retries: 73
    heartbeat_every: 79s
  keepalive: {interval: 83ms, timeout: 89ms, miss_budget: 97}
  recovery: {status_retries: 101, speculate_after: 103s}
slo:
  interval: 107ms
  latency:
    - {leg: rmf/job, percentile: 99, max: 1s}
`,
			bench.ChaosConfig{
				Items:    21,
				Capacity: 3,
				System:   cluster.SystemLocal,
				UseProxy: false,
				FT: knapsack.FTParams{
					Params:         knapsack.Params{Interval: 53, StealUnit: 59, NodeCost: 61 * time.Microsecond},
					SlaveTimeout:   67 * time.Second,
					StealTimeout:   71 * time.Second,
					StealRetries:   73,
					HeartbeatEvery: 79 * time.Second,
				},
				Horizon:        23 * time.Second,
				Keepalive:      proxy.KeepaliveConfig{Interval: 83 * time.Millisecond, Timeout: 89 * time.Millisecond, MissBudget: 97},
				ControlPlane:   true,
				JobRuntime:     29 * time.Second,
				JobCompute:     true,
				ExtraJobs:      31,
				Recovery:       &rmf.RecoveryPolicy{StatusRetries: 101, SpeculateAfter: 103 * time.Second},
				SuspectWindow:  37 * time.Second,
				BeatCost:       41 * time.Millisecond,
				HBMLateAfter:   43 * time.Second,
				HBMDownAfter:   47 * time.Second,
				SampleInterval: 107 * time.Millisecond,
				Options:        wantTopology(),
			}},
		{"table2", everyTopologyKey + "workload: {rounds: 3, sizes: [64, 4096], workers: 5}\n",
			bench.Table2Config{Rounds: 3, Sizes: []int{64, 4096}, Workers: 5, Options: wantTopology()}},
		{"table4", everyTopologyKey + "workload: {items: 21, capacity: 3, workers: 5}\n",
			bench.KnapsackConfig{Items: 21, Capacity: 3, Workers: 5, Options: wantTopology()}},
		// A monitor run is one kernel: the compiled sweep width is always 1.
		{"monitor", everyTopologyKey + "workload: {items: 21, capacity: 3, interval: 250ms}\n",
			bench.MonitorConfig{
				KnapsackConfig: bench.KnapsackConfig{Items: 21, Capacity: 3, Workers: 1, Options: wantTopology()},
				Interval:       250 * time.Millisecond,
			}},
		{"gridftp", "workload: {file_size: 1024, streams: [1, 8], loss_rates: [0, 0.02], seed: 7, workers: 5}\n",
			bench.TransferConfig{FileSize: 1024, Streams: []int{1, 8}, LossRates: []float64{0, 0.02}, Seed: 7, Workers: 5}},
		{"grid", everyTopologyKey + "workload: {items: 21, capacity: 3, use_proxy: true}\n",
			bench.GridConfig{Items: 21, Capacity: 3, UseProxy: true, Options: wantTopology()}},
		// No one fleet block can use every arrivals and sizes key and still pass
		// fleet.Config.Validate's per-kind checks; these two kinds read the most.
		{"fleet", `
workload:
  sites: 2
  hosts_per_site: 4
  cpus_per_host: 3
  jobs: 100
  seed: 7
  heartbeat: 5s
  trace_sample: 9
  arrivals: {kind: flash-crowd, rate: 10, amplitude: 0.5, period: 60s, peak: 3, from: 1s, to: 5s}
  sizes: {kind: pareto, mean: 2s, alpha: 1.5, min: 100ms, max: 10s, mu: 1.25, sigma: 0.75}
`,
			fleet.Config{
				Sites: 2, HostsPerSite: 4, CPUsPerHost: 3, Jobs: 100, Seed: 7,
				Heartbeat: 5 * time.Second, TraceSample: 9,
				Arrivals: fleet.RateShape{Kind: "flash-crowd", Rate: 10, Amplitude: 0.5, Period: time.Minute,
					Peak: 3, From: time.Second, To: 5 * time.Second},
				Sizes: fleet.SizeDist{Kind: "pareto", Mean: 2 * time.Second, Alpha: 1.5,
					Min: 100 * time.Millisecond, Max: 10 * time.Second, Mu: 1.25, Sigma: 0.75},
			}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			s, err := Parse([]byte("name: every-key\nkind: " + tc.kind + "\n" + tc.doc))
			if err != nil {
				t.Fatal(err)
			}
			got, err := kindOf(s.Kind).config(s)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("compiled config:\n got %+v\nwant %+v", got, tc.want)
			}
		})
	}

	t.Run("faults", func(t *testing.T) {
		s, err := Parse([]byte(chaosOK + `
faults:
  - crash: {host: compas00, from: 1s, to: 3s}
  - outage: {a: rwcp-gw, b: rwcp-outer, from: 5s, to: 7s}
  - flap: {a: rwcp-gw, b: rwcp-outer, period: 2s, duty: 0.25, from: 11s, to: 13s}
  - degrade: {src: rwcp-gw, dst: rwcp-outer, extra_latency: 17ms, loss: 0.125, from: 19s, to: 23s}
  - slow: {host: compas01, factor: 4.5, from: 29s, to: 31s}
  - partition: {a: [compas02, compas03], b: [etl-sun], from: 37s, to: 41s}
`))
		if err != nil {
			t.Fatal(err)
		}
		const sec = time.Second
		want := []FaultSpec{
			{Kind: "crash", Host: "compas00", From: 1 * sec, To: 3 * sec},
			{Kind: "outage", A: "rwcp-gw", B: "rwcp-outer", From: 5 * sec, To: 7 * sec},
			{Kind: "flap", A: "rwcp-gw", B: "rwcp-outer", Period: 2 * sec, Duty: 0.25, From: 11 * sec, To: 13 * sec},
			{Kind: "degrade", Src: "rwcp-gw", Dst: "rwcp-outer", ExtraLatency: 17 * time.Millisecond, Loss: 0.125, From: 19 * sec, To: 23 * sec},
			{Kind: "slow", Host: "compas01", Factor: 4.5, From: 29 * sec, To: 31 * sec},
			{Kind: "partition", GroupA: []string{"compas02", "compas03"}, GroupB: []string{"etl-sun"}, From: 37 * sec, To: 41 * sec},
		}
		if !reflect.DeepEqual(s.Faults, want) {
			t.Errorf("faults:\n got %+v\nwant %+v", s.Faults, want)
		}
	})

	t.Run("slo", func(t *testing.T) {
		s, err := Parse([]byte(chaosOK + `
slo:
  interval: 2s
  latency:
    - {leg: rmf/job, percentile: 99.5, max: 3s, min_count: 5}
  throughput:
    - {series: "rmf.*.jobs_done", min_total: 7, min_rate: 0.5}
  error_budget:
    - {series: "rmf.*.jobs_failed", budget: 11, window: 13, max_burn: 17}
`))
		if err != nil {
			t.Fatal(err)
		}
		want := &SLOSpec{
			Interval:   2 * time.Second,
			Latency:    []LatencySLO{{Leg: "rmf/job", Percentile: 99.5, Max: 3 * time.Second, MinCount: 5}},
			Throughput: []ThroughputSLO{{Series: "rmf.*.jobs_done", MinTotal: 7, MinRate: 0.5}},
			Budgets:    []ErrorBudgetSLO{{Series: "rmf.*.jobs_failed", Budget: 11, Window: 13, MaxBurn: 17}},
		}
		if !reflect.DeepEqual(s.SLO, want) {
			t.Errorf("slo:\n got %+v\nwant %+v", s.SLO, want)
		}
	})
}

// TestValidKeysListIsTheBlock: an unknown key's error lists exactly the keys of
// the block it was found in, sorted — for every block of the file format, every
// fault kind, and the one assertion argument that is a mapping.
func TestValidKeysListIsTheBlock(t *testing.T) {
	// in returns a chaos document whose workload block carries the given line.
	in := func(workloadLine string) string {
		return "name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30s\n  " + workloadLine + "\n"
	}
	workload := func(kind, body string) string {
		return "name: t\nkind: " + kind + "\nworkload: {" + body + "}\n"
	}
	const fleetBody = "sites: 2, hosts_per_site: 4, jobs: 100, "
	cases := []struct {
		block, doc, wantKeys string
	}{
		{"document", chaosOK + "zzz: 1\n", "assert, baseline, compare, desc, faults, kind, name, slo, topology, workload"},
		{"topology", chaosOK + "topology: {zzz: 1}\n", "extra_sites, flow, open_firewall, relay_buf_bytes, relay_per_buffer, secret, seed, wan"},
		{"topology.wan", chaosOK + "topology:\n  wan: {zzz: 1}\n", "bandwidth, latency, loss"},
		{"topology.flow", chaosOK + "topology:\n  flow: {zzz: 1}\n", "seed"},

		{"chaos workload", in("zzz: 1"), "beat_cost, capacity, control_plane, extra_jobs, ft, hbm, horizon, items, job_compute, job_runtime, keepalive, recovery, suspect_window, system, use_proxy"},
		{"chaos hbm", in("hbm: {zzz: 1}"), "down_after, late_after"},
		{"chaos ft", in("ft: {zzz: 1}"), "heartbeat_every, interval, node_cost, slave_timeout, steal_retries, steal_timeout, steal_unit"},
		{"chaos keepalive", in("keepalive: {zzz: 1}"), "interval, miss_budget, timeout"},
		{"chaos recovery", in("recovery: {zzz: 1}"), "speculate_after, status_retries"},
		{"table2 workload", workload("table2", "zzz: 1"), "rounds, sizes, workers"},
		{"table4 workload", workload("table4", "zzz: 1"), "capacity, items, workers"},
		{"monitor workload", workload("monitor", "zzz: 1"), "capacity, interval, items"},
		{"gridftp workload", workload("gridftp", "zzz: 1"), "file_size, loss_rates, seed, streams, workers"},
		{"grid workload", workload("grid", "zzz: 1"), "capacity, items, use_proxy"},
		{"fleet workload", workload("fleet", fleetBody+"arrivals: {rate: 10}, sizes: {mean: 1s}, zzz: 1"),
			"arrivals, cpus_per_host, heartbeat, hosts_per_site, jobs, seed, sites, sizes, trace_sample"},
		{"fleet arrivals", workload("fleet", fleetBody+"arrivals: {rate: 10, zzz: 1}, sizes: {mean: 1s}"),
			"amplitude, from, kind, peak, period, rate, to"},
		{"fleet sizes", workload("fleet", fleetBody+"arrivals: {rate: 10}, sizes: {mean: 1s, zzz: 1}"),
			"alpha, kind, max, mean, min, mu, sigma"},

		{"crash", chaosOK + "faults:\n  - crash: {host: compas00, zzz: 1}\n", "from, host, to"},
		{"outage", chaosOK + "faults:\n  - outage: {a: rwcp-gw, b: rwcp-outer, from: 1s, to: 2s, zzz: 1}\n", "a, b, from, to"},
		{"flap", chaosOK + "faults:\n  - flap: {a: rwcp-gw, b: rwcp-outer, period: 1s, duty: 0.5, from: 1s, to: 2s, zzz: 1}\n", "a, b, duty, from, period, to"},
		{"degrade", chaosOK + "faults:\n  - degrade: {src: rwcp-gw, dst: rwcp-outer, zzz: 1}\n", "dst, extra_latency, from, loss, src, to"},
		{"slow", chaosOK + "faults:\n  - slow: {host: compas00, factor: 2, zzz: 1}\n", "factor, from, host, to"},
		{"partition", chaosOK + "faults:\n  - partition: {a: [compas00], b: [etl-sun], zzz: 1}\n", "a, b, from, to"},

		{"slo", chaosOK + "slo: {zzz: 1}\n", "error_budget, interval, latency, throughput"},
		{"slo latency", chaosOK + "slo:\n  latency:\n    - {leg: rmf/job, percentile: 99, max: 1s, zzz: 1}\n", "leg, max, min_count, percentile"},
		{"slo throughput", chaosOK + "slo:\n  throughput:\n    - {series: x, min_total: 1, zzz: 1}\n", "min_rate, min_total, series"},
		{"slo error_budget", chaosOK + "slo:\n  error_budget:\n    - {series: x, zzz: 1}\n", "budget, max_burn, series, window"},

		{"registrations argument", chaosOK + "assert:\n  - registrations: {min: 1, zzz: 1}\n", "max, min"},
	}
	for _, tc := range cases {
		t.Run(tc.block, func(t *testing.T) {
			s, err := Parse([]byte(tc.doc))
			if err == nil {
				// Assertion arguments are typed by Validate, not Parse.
				err = Validate(s)
			}
			want := `unknown key "zzz" (valid keys: ` + tc.wantKeys + ")"
			if err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("error %v, want one ending in %q", err, want)
			}
		})
	}
}
