package scenario

import (
	"fmt"

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

// Validate checks a parsed spec end to end without running the workload:
// the shape every kind shares, assertion names and arguments, the kind's own
// constraints, and — by building the scenario's testbed and applying the
// compiled plan — every fault's host and link names.
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
			if _, err := s.comparator(); err != nil {
				return fmt.Errorf("scenario %s: %w", s.Name, err)
			}
		}
	}
	plan, err := s.faultPlan()
	if err != nil {
		return err
	}
	k := kindOf(s.Kind)
	if k.validate != nil {
		if err := k.validate(s); err != nil {
			return err
		}
	}
	// Host/link validation: build the testbed the run would use and apply
	// the plan to it, then throw it away. ApplyPlan is where unknown-name
	// and no-such-link errors surface (never a panic).
	if k.faults {
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

// checkShape enforces the sections each kind's entry allows.
func (s *Spec) checkShape() error {
	k := kindOf(s.Kind)
	switch {
	case k == nil:
		return fmt.Errorf("scenario %s: unknown kind %q (one of: %s)", s.Name, s.Kind, kindNames(", ", nil))
	case len(s.Faults) > 0 && !k.faults:
		return fmt.Errorf("scenario %s: faults are not supported for kind %s (only %s take a fault plan)",
			s.Name, s.Kind, kindNames(" and ", func(k *kind) bool { return k.faults }))
	case s.SLO != nil && !k.observed:
		return fmt.Errorf("scenario %s: slo blocks are not supported for kind %s (only %s run with an observer attached)",
			s.Name, s.Kind, kindNames(" and ", func(k *kind) bool { return k.observed }))
	case k.ownTestbed != "" && s.Topology != (cluster.Options{}):
		return fmt.Errorf("scenario %s: kind %s %s; the topology section must be empty", s.Name, s.Kind, k.ownTestbed)
	}
	return nil
}
