package scenario

import (
	"fmt"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/chaos"
	"nxcluster/internal/cluster"
	"nxcluster/internal/simnet"
)

// Group aliases usable in partition fault groups.
const (
	aliasRWCPSide = "$rwcp-side"
	aliasETLSide  = "$etl-side"
)

// faultPlan compiles the faults section into a simnet plan (nil when the
// scenario declares none). Host/link name validation happens later, at
// ApplyPlan against a built testbed — see Validate.
func (s *Spec) faultPlan() (*simnet.FaultPlan, error) {
	if len(s.Faults) == 0 {
		return nil, nil
	}
	p := &simnet.FaultPlan{}
	for i, f := range s.Faults {
		switch f.Kind {
		case "crash":
			if f.To > 0 {
				p.CrashWindow(f.Host, f.From, f.To)
			} else {
				p.Crash(f.Host, f.From)
			}
		case "outage":
			p.LinkOutage(f.A, f.B, f.From, f.To)
		case "flap":
			p.LinkFlap(f.A, f.B, f.Period, f.Duty, f.From, f.To)
		case "degrade":
			p.LinkDegrade(f.Src, f.Dst, f.ExtraLatency, f.Loss, f.From, f.To)
		case "slow":
			p.SlowHost(f.Host, f.Factor, f.From, f.To)
		case "partition":
			a, err := expandGroup(f.GroupA)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: faults[%d].partition.a: %w", s.Name, i, err)
			}
			b, err := expandGroup(f.GroupB)
			if err != nil {
				return nil, fmt.Errorf("scenario %s: faults[%d].partition.b: %w", s.Name, i, err)
			}
			if f.To > f.From {
				p.Partition(a, b, f.From, f.To)
			} else {
				p.Partition(a, b, f.From, 0)
			}
		}
	}
	if err := p.Err(); err != nil {
		return nil, fmt.Errorf("scenario %s: fault plan: %w", s.Name, err)
	}
	return p, nil
}

// expandGroup replaces the side aliases with the canonical Figure 5 halves.
func expandGroup(names []string) ([]string, error) {
	out := make([]string, 0, len(names))
	for _, n := range names {
		switch n {
		case aliasRWCPSide:
			out = append(out, cluster.RWCPSideNodes()...)
		case aliasETLSide:
			out = append(out, cluster.ETLSideNodes()...)
		default:
			if len(n) > 0 && n[0] == '$' {
				return nil, fmt.Errorf("unknown group alias %q (known: %s, %s)", n, aliasRWCPSide, aliasETLSide)
			}
			out = append(out, n)
		}
	}
	return out, nil
}

// systemOf maps the workload's system name onto the Table 3 configuration.
func systemOf(name string) (cluster.System, error) {
	switch name {
	case "compas":
		return cluster.SystemCompas, nil
	case "etl-o2k":
		return cluster.SystemETLO2K, nil
	case "local":
		return cluster.SystemLocal, nil
	case "wide":
		return cluster.SystemWide, nil
	}
	return 0, fmt.Errorf("unknown system %q (one of: compas, etl-o2k, local, wide)", name)
}

// chaosConfig attaches to the decoded chaos config what no workload key
// states: the fault plan, the testbed options and the sampler.
func (s *Spec) chaosConfig() (chaos.Config, error) {
	plan, err := s.faultPlan()
	if err != nil {
		return chaos.Config{}, err
	}
	cfg := *s.Chaos
	cfg.Plan, cfg.Options = plan, s.Topology
	// An SLO block needs windowed series to judge, so it switches the
	// chaos sampler on (reads only — never perturbs virtual-time results).
	if s.SLO != nil {
		cfg.SampleInterval = s.SLO.Interval
		if cfg.SampleInterval <= 0 {
			cfg.SampleInterval = time.Second
		}
	}
	return cfg, nil
}

// Validate checks a parsed spec end to end without running the workload:
// kind-specific constraints, assertion names and arguments, and — by
// building the scenario's testbed and applying the compiled plan — every
// fault's host and link names.
func Validate(s *Spec) error {
	if err := s.checkShape(); err != nil {
		return err
	}
	if _, err := buildAsserts(s); err != nil {
		return err
	}
	if s.Baseline != nil {
		if err := Validate(s.Baseline); err != nil {
			return err
		}
		if s.Compare != "" {
			if _, err := comparatorOf(s.Compare); err != nil {
				return fmt.Errorf("scenario %s: %w", s.Name, err)
			}
		}
	}

	// Host/link validation: build the testbed the run would use and apply
	// the plan to it, then throw it away. ApplyPlan is where unknown-name
	// and no-such-link errors surface (never a panic).
	switch s.Kind {
	case KindChaos:
		cfg, err := s.chaosConfig()
		if err != nil {
			return err
		}
		if cfg.Items <= 0 || cfg.Capacity <= 0 {
			return fmt.Errorf("scenario %s: workload needs items > 0 and capacity > 0 (got %d/%d)", s.Name, cfg.Items, cfg.Capacity)
		}
		if cfg.Horizon <= 0 {
			return fmt.Errorf("scenario %s: workload.horizon required (how long the kernel runs)", s.Name)
		}
		tb := cluster.NewTestbed(cfg.Options)
		defer tb.Shutdown()
		if cfg.Plan != nil {
			if err := tb.ApplyPlan(cfg.Plan); err != nil {
				return fmt.Errorf("scenario %s: fault plan: %w", s.Name, err)
			}
		}
	case KindGrid:
		plan, err := s.faultPlan()
		if err != nil {
			return err
		}
		tb := cluster.NewTestbed(s.Topology)
		defer tb.Shutdown()
		if plan != nil {
			if err := tb.ApplyPlan(plan); err != nil {
				return fmt.Errorf("scenario %s: fault plan: %w", s.Name, err)
			}
		}
	}
	return nil
}

// checkShape enforces the per-kind structural constraints.
func (s *Spec) checkShape() error {
	if len(s.Faults) > 0 && s.Kind != KindChaos && s.Kind != KindGrid {
		return fmt.Errorf("scenario %s: faults are not supported for kind %s (only chaos and grid take a fault plan)", s.Name, s.Kind)
	}
	if s.SLO != nil {
		if s.Kind != KindChaos && s.Kind != KindMonitor {
			return fmt.Errorf("scenario %s: slo blocks are not supported for kind %s (only chaos and monitor run with an observer attached)", s.Name, s.Kind)
		}
		if s.Kind == KindMonitor && s.SLO.Interval != 0 {
			return fmt.Errorf("scenario %s: slo.interval is the chaos sampler window; monitor scenarios window on workload.interval", s.Name)
		}
	}
	switch s.Kind {
	case KindGridFTP:
		if s.Topology != (cluster.Options{}) {
			return fmt.Errorf("scenario %s: kind gridftp builds its own congestion-modeled testbed per point; the topology section must be empty", s.Name)
		}
	case KindFleet:
		if s.Topology != (cluster.Options{}) {
			return fmt.Errorf("scenario %s: kind fleet stamps its own sites x hosts tree from the workload block; the topology section must be empty", s.Name)
		}
	}
	return nil
}

// --- per-kind bench configs: the decoded workload plus the testbed options ---

func (s *Spec) table2Config() bench.Table2Config {
	cfg := *s.Table2
	cfg.Options = s.Topology
	return cfg
}

func (s *Spec) table4Config() bench.KnapsackConfig {
	cfg := *s.Table4
	cfg.Options = s.Topology
	return cfg
}

// monitorConfig pins the sweep width to 1: a monitor run is one kernel.
func (s *Spec) monitorConfig() bench.MonitorConfig {
	cfg := *s.Monitor
	cfg.Options, cfg.Workers = s.Topology, 1
	return cfg
}

func (s *Spec) gridConfig() (bench.GridConfig, error) {
	plan, err := s.faultPlan()
	if err != nil {
		return bench.GridConfig{}, err
	}
	cfg := *s.Grid
	cfg.Options, cfg.Plan = s.Topology, plan
	return cfg, nil
}
