package scenario

import (
	"fmt"
	"strings"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/chaos"
	"nxcluster/internal/cluster"
	"nxcluster/internal/fleet"
	"nxcluster/internal/rmf"
	"nxcluster/internal/simnet"
)

// Kind selects a scenario's experiment archetype: which runner the workload
// block configures and which assertions the file may declare.
type Kind string

const (
	// KindChaos runs the Table 4 knapsack workload on the recovery-enabled
	// testbed under a fault schedule with the full invariant library
	// (internal/chaos.Run).
	KindChaos Kind = "chaos"
	// KindTable2 measures the paper's Table 2 latency/bandwidth points
	// (bench.RunTable2).
	KindTable2 Kind = "table2"
	// KindTable4 runs the full Table 4 execution-time sweep across the
	// paper's systems (bench.RunKnapsack).
	KindTable4 Kind = "table4"
	// KindMonitor runs the wide-area knapsack with the live monitoring plane
	// attached (bench.RunMonitor).
	KindMonitor Kind = "monitor"
	// KindGridFTP sweeps parallel-stream transfers against WAN loss
	// (bench.RunTransfer).
	KindGridFTP Kind = "gridftp"
	// KindGrid runs one wide-grid knapsack solve (bench.RunGridKnapsack).
	KindGrid Kind = "grid"
	// KindFleet runs the open-loop fleet-scale workload engine: N sites x M
	// hosts behind hierarchical routing, sharded allocation, and a batched
	// control plane (fleet.New / bench.RunFleet).
	KindFleet Kind = "fleet"
)

// validKinds lists every kind for error messages, in display order.
var validKinds = []Kind{KindChaos, KindTable2, KindTable4, KindMonitor, KindGridFTP, KindGrid, KindFleet}

// Spec is a fully decoded scenario file. The topology and workload sections
// decode straight into the configs the run consumes (see decode.go); compile.go
// attaches what no key states — the fault plan, the testbed options, the
// sampler an slo block needs.
type Spec struct {
	Name string
	Desc string
	Kind Kind
	// Topology adjusts testbed construction.
	Topology cluster.Options
	Faults   []FaultSpec
	Asserts  []AssertSpec

	// SLO, when non-nil, is the scenario's service-level-objective block:
	// latency percentiles over causal trace legs, throughput floors and
	// error budgets over the sampled time-series (chaos and monitor kinds).
	SLO *SLOSpec

	// Exactly one of the following is non-nil, matching Kind.
	Chaos   *chaos.Config
	Table2  *bench.Table2Config
	Table4  *bench.KnapsackConfig
	Monitor *bench.MonitorConfig
	GridFTP *bench.TransferConfig
	Grid    *bench.GridConfig
	Fleet   *fleet.Config

	// Baseline, for chaos scenarios, is a second spec produced by deep-
	// merging the file's `baseline:` patch over the scenario document —
	// typically the same faults without the mitigation. Compare names the
	// cross-check applied between the two runs.
	Baseline *Spec
	Compare  string
}

// FaultSpec is one declarative fault-schedule entry.
type FaultSpec struct {
	// Kind is the entry key: crash, outage, flap, degrade, slow, partition.
	Kind string
	// Host targets crash/slow; A/B name duplex link ends (outage/flap);
	// Src/Dst name the directed link for degrade.
	Host     string
	A, B     string
	Src, Dst string
	// From/To bound the fault window. For crash, degrade, slow and partition
	// a missing `to` leaves the fault in place permanently; for outage and
	// flap `to` is required.
	From, To time.Duration
	// Period/Duty parameterize flap.
	Period time.Duration
	Duty   float64
	// ExtraLatency/Loss parameterize degrade.
	ExtraLatency time.Duration
	Loss         float64
	// Factor parameterizes slow.
	Factor float64
	// GroupA/GroupB parameterize partition; entries may use the aliases
	// "$rwcp-side" and "$etl-side" for the canonical Figure 5 halves.
	GroupA, GroupB []string
}

// AssertSpec is one end-of-run assertion: a bare name, or a name with an
// argument ("elapsed-ceiling: 60s", "registrations: {min: 1, max: 1}").
type AssertSpec struct {
	Name string
	Arg  any
}

// maxExtraSites caps topology.extra_sites: the shipped maximum is 3, and kind
// fleet (fleet.MaxFleetHosts) is the path for thousands of hosts.
const maxExtraSites = 1024

// Parse decodes and validates one scenario document. The returned Spec is
// ready to Compile and Run. Parse never panics on malformed input.
func Parse(data []byte) (*Spec, error) {
	doc, err := parseDocument(data)
	if err != nil {
		return nil, err
	}
	return decodeSpec(doc, true)
}

func decodeSpec(doc any, allowBaseline bool) (*Spec, error) {
	s := &Spec{}
	var kind string
	var topology, workload, slo, baseline any
	var faults, asserts []any
	if err := decode(doc, "", table{
		{"name", &s.Name},
		{"desc", &s.Desc},
		{"kind", &kind},
		{"topology", &topology},
		{"workload", &workload},
		{"faults", &faults},
		{"assert", &asserts},
		{"slo", &slo},
		{"baseline", &baseline},
		{"compare", &s.Compare},
	}); err != nil {
		return nil, err
	}
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: missing required key \"name\"")
	}
	if kind == "" {
		return nil, fmt.Errorf("scenario %s: missing required key \"kind\" (one of: %s)", s.Name, kindList())
	}
	s.Kind = Kind(kind)
	if !validKind(s.Kind) {
		return nil, fmt.Errorf("scenario %s: unknown kind %q (one of: %s)", s.Name, kind, kindList())
	}
	if topology != nil {
		if err := decodeTopology(topology, &s.Topology); err != nil {
			return nil, err
		}
	}
	if workload == nil {
		return nil, fmt.Errorf("scenario %s: missing required key \"workload\" (kind %s needs one)", s.Name, s.Kind)
	}
	if err := decodeWorkload(workload, s); err != nil {
		return nil, err
	}
	for i, e := range faults {
		f, err := decodeFault(e, fmt.Sprintf("faults[%d]", i))
		if err != nil {
			return nil, err
		}
		s.Faults = append(s.Faults, f)
	}
	for i, e := range asserts {
		switch t := e.(type) {
		case string:
			s.Asserts = append(s.Asserts, AssertSpec{Name: t})
		case map[string]any:
			if len(t) != 1 {
				return nil, fmt.Errorf("scenario: assert[%d] must be a bare name or a single-key mapping", i)
			}
			for k, arg := range t {
				s.Asserts = append(s.Asserts, AssertSpec{Name: k, Arg: arg})
			}
		default:
			return nil, fmt.Errorf("scenario: assert[%d] must be a name or \"name: arg\", got %s", i, typeName(e))
		}
	}
	if slo != nil {
		if err := decodeSLO(slo, s); err != nil {
			return nil, err
		}
	}
	if baseline != nil {
		if !allowBaseline {
			return nil, fmt.Errorf("scenario %s: baseline cannot itself declare a baseline", s.Name)
		}
		if s.Kind != KindChaos {
			return nil, fmt.Errorf("scenario %s: baseline is only supported for kind chaos", s.Name)
		}
		patch, ok := baseline.(map[string]any)
		if !ok {
			return nil, mismatch("baseline", "a mapping", baseline)
		}
		// The baseline inherits the document minus the primary-run-only
		// sections: its own baseline/compare, the assertions, and the SLO
		// block (objectives judge the mitigated run, not the control).
		merged := deepMerge(pruneKeys(doc.(map[string]any), "baseline", "compare", "assert", "slo"), patch)
		base, err := decodeSpec(merged, false)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: baseline: %w", s.Name, err)
		}
		s.Baseline = base
	}
	if s.Compare != "" && s.Baseline == nil {
		return nil, fmt.Errorf("scenario %s: compare %q requires a baseline", s.Name, s.Compare)
	}
	return s, nil
}

func validKind(k Kind) bool {
	for _, v := range validKinds {
		if k == v {
			return true
		}
	}
	return false
}

func kindList() string {
	parts := make([]string, len(validKinds))
	for i, k := range validKinds {
		parts[i] = string(k)
	}
	return strings.Join(parts, ", ")
}

// pruneKeys shallow-copies m without the named keys.
func pruneKeys(m map[string]any, keys ...string) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = v
	}
	for _, k := range keys {
		delete(out, k)
	}
	return out
}

// deepMerge overlays patch onto base: mappings merge recursively, everything
// else (lists included) replaces wholesale. A null patch value deletes the
// base key, so a baseline can strip a mitigation ("recovery: null").
func deepMerge(base, patch map[string]any) map[string]any {
	out := make(map[string]any, len(base)+len(patch))
	for k, v := range base {
		out[k] = v
	}
	for k, pv := range patch {
		if pv == nil {
			delete(out, k)
			continue
		}
		if pm, ok := pv.(map[string]any); ok {
			if bm, ok := out[k].(map[string]any); ok {
				out[k] = deepMerge(bm, pm)
				continue
			}
		}
		out[k] = pv
	}
	return out
}

func decodeTopology(v any, o *cluster.Options) error {
	// A flow block switches the congestion model on by being there.
	flow, hasFlow := &simnet.FlowConfig{Seed: 1}, false
	err := decode(v, "topology", table{
		{"extra_sites", &o.ExtraSites},
		{"open_firewall", &o.OpenFirewall},
		{"secret", &o.Secret},
		{"seed", &o.Seed},
		{"relay_per_buffer", &o.RelayPerBuffer},
		{"relay_buf_bytes", &o.RelayBufBytes},
		{"wan", table{
			{"latency", &o.WANLatency},
			{"bandwidth", &o.WANBandwidth},
			{"loss", &o.WANLossRate},
		}},
		{"flow", present{&hasFlow, table{
			{"seed", &flow.Seed},
		}}},
	})
	if err != nil {
		return err
	}
	if hasFlow {
		o.FlowModel = flow
	}
	if o.ExtraSites > maxExtraSites {
		return fmt.Errorf("scenario: topology.extra_sites must be <= %d, got %d (kind fleet is the path for thousands of hosts)", maxExtraSites, o.ExtraSites)
	}
	if o.WANLossRate < 0 || o.WANLossRate > 1 {
		return fmt.Errorf("scenario: topology.wan.loss %v outside [0,1] — loss is a probability", o.WANLossRate)
	}
	return nil
}

// decodeWorkload fills the run config of the spec's kind from the workload
// block. Defaults that are not the zero value are set on the config before
// the walk.
func decodeWorkload(v any, s *Spec) error {
	const path = "workload"
	switch s.Kind {
	case KindChaos:
		c := &chaos.Config{System: cluster.SystemWide, UseProxy: true}
		// A recovery block overrides the job's policy by being there.
		rec, hasRec := &rmf.RecoveryPolicy{}, false
		s.Chaos = c
		err := decode(v, path, table{
			{"items", &c.Items},
			{"capacity", &c.Capacity},
			{"system", func(name string) (err error) { c.System, err = systemOf(name); return }},
			{"use_proxy", &c.UseProxy},
			{"horizon", &c.Horizon},
			{"control_plane", &c.ControlPlane},
			{"job_runtime", &c.JobRuntime},
			{"job_compute", &c.JobCompute},
			{"extra_jobs", &c.ExtraJobs},
			{"suspect_window", &c.SuspectWindow},
			{"beat_cost", &c.BeatCost},
			{"hbm", table{
				{"late_after", &c.HBMLateAfter},
				{"down_after", &c.HBMDownAfter},
			}},
			{"ft", table{
				{"interval", &c.FT.Interval},
				{"steal_unit", &c.FT.StealUnit},
				{"node_cost", &c.FT.NodeCost},
				{"slave_timeout", &c.FT.SlaveTimeout},
				{"steal_timeout", &c.FT.StealTimeout},
				{"steal_retries", &c.FT.StealRetries},
				{"heartbeat_every", &c.FT.HeartbeatEvery},
			}},
			{"keepalive", table{
				{"interval", &c.Keepalive.Interval},
				{"timeout", &c.Keepalive.Timeout},
				{"miss_budget", &c.Keepalive.MissBudget},
			}},
			{"recovery", present{&hasRec, table{
				{"status_retries", &rec.StatusRetries},
				{"speculate_after", &rec.SpeculateAfter},
			}}},
		})
		if hasRec {
			c.Recovery = rec
		}
		return err
	case KindTable2:
		c := &bench.Table2Config{}
		s.Table2 = c
		return decode(v, path, table{
			{"rounds", &c.Rounds},
			{"sizes", &c.Sizes},
			{"workers", &c.Workers},
		})
	case KindTable4:
		c := &bench.KnapsackConfig{}
		s.Table4 = c
		return decode(v, path, table{
			{"items", &c.Items},
			{"capacity", &c.Capacity},
			{"workers", &c.Workers},
		})
	case KindMonitor:
		c := &bench.MonitorConfig{}
		s.Monitor = c
		return decode(v, path, table{
			{"items", &c.Items},
			{"capacity", &c.Capacity},
			{"interval", &c.Interval},
		})
	case KindGridFTP:
		c := &bench.TransferConfig{}
		s.GridFTP = c
		if err := decode(v, path, table{
			{"file_size", &c.FileSize},
			{"streams", &c.Streams},
			{"loss_rates", &c.LossRates},
			{"seed", &c.Seed},
			{"workers", &c.Workers},
		}); err != nil {
			return err
		}
		for _, l := range c.LossRates {
			if l < 0 || l > 1 {
				return fmt.Errorf("scenario: workload.loss_rates entry %v outside [0,1] — loss is a probability", l)
			}
		}
		return nil
	case KindGrid:
		c := &bench.GridConfig{}
		s.Grid = c
		return decode(v, path, table{
			{"items", &c.Items},
			{"capacity", &c.Capacity},
			{"use_proxy", &c.UseProxy},
		})
	case KindFleet:
		c := &fleet.Config{Arrivals: fleet.RateShape{Kind: "constant"}, Sizes: fleet.SizeDist{Kind: "fixed"}}
		var hasArrivals, hasSizes bool
		s.Fleet = c
		if err := decode(v, path, table{
			{"sites", &c.Sites},
			{"hosts_per_site", &c.HostsPerSite},
			{"cpus_per_host", &c.CPUsPerHost},
			{"jobs", &c.Jobs},
			{"seed", &c.Seed},
			{"heartbeat", &c.Heartbeat},
			{"trace_sample", &c.TraceSample},
			{"arrivals", present{&hasArrivals, table{
				{"kind", &c.Arrivals.Kind},
				{"rate", &c.Arrivals.Rate},
				{"amplitude", &c.Arrivals.Amplitude},
				{"period", &c.Arrivals.Period},
				{"peak", &c.Arrivals.Peak},
				{"from", &c.Arrivals.From},
				{"to", &c.Arrivals.To},
			}}},
			{"sizes", present{&hasSizes, table{
				{"kind", &c.Sizes.Kind},
				{"mean", &c.Sizes.Mean},
				{"alpha", &c.Sizes.Alpha},
				{"min", &c.Sizes.Min},
				{"max", &c.Sizes.Max},
				{"mu", &c.Sizes.Mu},
				{"sigma", &c.Sizes.Sigma},
			}}},
		}); err != nil {
			return err
		}
		if !hasArrivals {
			return fmt.Errorf("scenario %s: workload.arrivals required (the open-loop rate process)", s.Name)
		}
		if !hasSizes {
			return fmt.Errorf("scenario %s: workload.sizes required (the job service-time distribution)", s.Name)
		}
		// Strict decode: a fleet block that parses but cannot run (unknown
		// distribution, rate <= 0, sites x hosts past the host cap) is a parse
		// error, not a deferred run failure.
		if err := c.Validate(); err != nil {
			return fmt.Errorf("scenario %s: workload: %w", s.Name, err)
		}
		return nil
	}
	return fmt.Errorf("scenario %s: unknown kind %q", s.Name, s.Kind)
}

// decodeFault decodes one `- kind: {...}` entry of the faults list: the kind's
// own keys plus the window every kind takes, then the kind's range checks.
func decodeFault(e any, path string) (FaultSpec, error) {
	m, isMap := e.(map[string]any)
	if !isMap || len(m) != 1 {
		return FaultSpec{}, fmt.Errorf("scenario: %s must be a single-key mapping like \"- crash: {...}\"", path)
	}
	var f FaultSpec
	var body any
	for kind, b := range m { // the one entry
		f.Kind, body = kind, b
	}
	path += "." + f.Kind
	var rows table
	// Crash, degrade, slow and partition are permanent without a "to".
	boundedWindow := false
	switch f.Kind {
	case "crash":
		rows = table{{"host", &f.Host}}
	case "outage":
		rows, boundedWindow = table{{"a", &f.A}, {"b", &f.B}}, true
	case "flap":
		rows, boundedWindow = table{{"a", &f.A}, {"b", &f.B}, {"period", &f.Period}, {"duty", &f.Duty}}, true
	case "degrade":
		rows = table{{"src", &f.Src}, {"dst", &f.Dst}, {"extra_latency", &f.ExtraLatency}, {"loss", &f.Loss}}
	case "slow":
		rows = table{{"host", &f.Host}, {"factor", &f.Factor}}
	case "partition":
		rows = table{{"a", &f.GroupA}, {"b", &f.GroupB}}
	default:
		return f, fmt.Errorf("scenario: %s: unknown fault kind %q (one of: crash, outage, flap, degrade, slow, partition)", path, f.Kind)
	}
	hasTo := false
	if err := decode(body, path, append(rows, row{"from", &f.From}, row{"to", present{&hasTo, &f.To}})); err != nil {
		return f, err
	}
	switch f.Kind {
	case "crash", "slow":
		if f.Host == "" {
			return f, fmt.Errorf("scenario: %s: missing required key \"host\"", path)
		}
		if f.Kind == "slow" && f.Factor <= 0 {
			return f, fmt.Errorf("scenario: %s: slow factor %v must be > 0", path, f.Factor)
		}
	case "outage", "flap":
		if f.A == "" || f.B == "" {
			return f, fmt.Errorf("scenario: %s: needs both link ends \"a\" and \"b\"", path)
		}
		if f.Kind == "flap" && f.Period <= 0 {
			return f, fmt.Errorf("scenario: %s: flap needs period > 0", path)
		}
		if f.Kind == "flap" && (f.Duty <= 0 || f.Duty >= 1) {
			return f, fmt.Errorf("scenario: %s: flap duty %v outside (0,1)", path, f.Duty)
		}
	case "degrade":
		if f.Src == "" || f.Dst == "" {
			return f, fmt.Errorf("scenario: %s: degrade is directional — needs \"src\" and \"dst\"", path)
		}
		if f.Loss < 0 || f.Loss >= 1 {
			return f, fmt.Errorf("scenario: %s: degrade loss %v outside [0,1)", path, f.Loss)
		}
	case "partition":
		if len(f.GroupA) == 0 || len(f.GroupB) == 0 {
			return f, fmt.Errorf("scenario: %s: partition needs non-empty groups \"a\" and \"b\"", path)
		}
	}
	switch {
	case boundedWindow && !hasTo:
		return f, fmt.Errorf("scenario: %s: missing required key \"to\" (%s needs a bounded window)", path, f.Kind)
	case boundedWindow && f.To <= f.From:
		return f, fmt.Errorf("scenario: %s: window to %v <= from %v — %s windows must end after they start", path, f.To, f.From, f.Kind)
	case hasTo && f.To <= f.From:
		return f, fmt.Errorf("scenario: %s: window to %v <= from %v — omit \"to\" for a permanent %s", path, f.To, f.From, f.Kind)
	}
	return f, nil
}
