package simnet

import (
	"fmt"
	"sort"
	"time"
)

// FaultKind enumerates the fault injections a FaultPlan can schedule.
type FaultKind int

const (
	// FaultLinkDown takes the duplex link A<->B out of service.
	FaultLinkDown FaultKind = iota
	// FaultLinkUp restores the duplex link A<->B.
	FaultLinkUp
	// FaultCrash crashes host A (CrashHost).
	FaultCrash
	// FaultRestart restarts host A (RestartHost).
	FaultRestart
	// FaultDegrade applies gray degradation to the directed link A->B:
	// AddLatency of extra propagation delay on every transfer, plus LossPct
	// of extra segment loss for flow-modeled connections (plain reliable
	// streams are lossless by construction, so they see only the latency).
	FaultDegrade
	// FaultClearDegrade restores the directed link A->B to its configured
	// latency and loss rate.
	FaultClearDegrade
	// FaultPartition severs every link with one endpoint in GroupA and the
	// other in GroupB, atomically at a single instant.
	FaultPartition
	// FaultHeal restores every GroupA<->GroupB link cut by FaultPartition.
	FaultHeal
	// FaultSlowHost divides host A's compute speed by Factor, modeling a
	// straggler: Compute calls take Factor times longer; Sleep is unscaled.
	FaultSlowHost
	// FaultRestoreHost returns host A to its configured speed.
	FaultRestoreHost
)

func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	case FaultDegrade:
		return "degrade"
	case FaultClearDegrade:
		return "clear-degrade"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultSlowHost:
		return "slow-host"
	case FaultRestoreHost:
		return "restore-host"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scheduled injection. A names the host (crash/restart/slow) or
// one link endpoint; B names the other link endpoint for link faults.
type Fault struct {
	At   time.Duration
	Kind FaultKind
	A    string
	B    string

	// Seq is the insertion index, assigned by the builder methods. ordered()
	// breaks same-instant ties on it, so faults at the same instant always
	// apply in insertion order regardless of kind. Hand-built Fault slices
	// may leave Seq zero; the stable sort then preserves slice order.
	Seq int

	// AddLatency and LossPct parameterize FaultDegrade.
	AddLatency time.Duration
	LossPct    float64
	// Factor parameterizes FaultSlowHost (must be > 0; > 1 slows).
	Factor float64
	// GroupA and GroupB parameterize FaultPartition / FaultHeal.
	GroupA, GroupB []string
}

// FaultPlan is a declarative schedule of fault injections, executed by
// kernel timers when applied to a network. Plans are plain data: a seeded
// generator can build one up front, the harness can log it, and replaying
// the same plan yields a bit-identical run.
type FaultPlan struct {
	Faults []Fault

	// err records the first malformed builder call (e.g. a LinkFlap with an
	// impossible duty cycle); ApplyPlan refuses such plans.
	err error
}

// add appends f with its insertion sequence number.
func (p *FaultPlan) add(f Fault) *FaultPlan {
	f.Seq = len(p.Faults)
	p.Faults = append(p.Faults, f)
	return p
}

// fail records a builder error; the first one wins and surfaces at ApplyPlan.
func (p *FaultPlan) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// Err returns the first builder error, if any. ApplyPlan checks it, so
// chained builders don't need per-call error handling.
func (p *FaultPlan) Err() error { return p.err }

// LinkOutage schedules the duplex link a<->b down at from and back up at to.
func (p *FaultPlan) LinkOutage(a, b string, from, to time.Duration) *FaultPlan {
	p.add(Fault{At: from, Kind: FaultLinkDown, A: a, B: b})
	p.add(Fault{At: to, Kind: FaultLinkUp, A: a, B: b})
	return p
}

// CrashWindow schedules host h to crash at from and restart at to.
func (p *FaultPlan) CrashWindow(h string, from, to time.Duration) *FaultPlan {
	p.add(Fault{At: from, Kind: FaultCrash, A: h})
	p.add(Fault{At: to, Kind: FaultRestart, A: h})
	return p
}

// Crash schedules host h to crash at t with no restart.
func (p *FaultPlan) Crash(h string, t time.Duration) *FaultPlan {
	return p.add(Fault{At: t, Kind: FaultCrash, A: h})
}

// Partition severs every link between groupA and groupB at from, and heals
// the cut at to (to <= from schedules no heal — a permanent partition).
// Severing and healing are atomic: all cross-group links change state in one
// kernel event, so no traffic ever observes a half-partitioned network.
func (p *FaultPlan) Partition(groupA, groupB []string, from, to time.Duration) *FaultPlan {
	p.add(Fault{At: from, Kind: FaultPartition, GroupA: groupA, GroupB: groupB})
	if to > from {
		p.add(Fault{At: to, Kind: FaultHeal, GroupA: groupA, GroupB: groupB})
	}
	return p
}

// LinkDegrade applies gray degradation to the DIRECTED link a->b between
// from and to: addLatency of extra propagation delay on everything, and
// lossPct of extra loss for flow-modeled data segments. Asymmetric WANs are
// the point — degrade the reverse direction with a second call. to <= from
// leaves the degradation in place for the rest of the run.
func (p *FaultPlan) LinkDegrade(a, b string, addLatency time.Duration, lossPct float64, from, to time.Duration) *FaultPlan {
	p.add(Fault{At: from, Kind: FaultDegrade, A: a, B: b, AddLatency: addLatency, LossPct: lossPct})
	if to > from {
		p.add(Fault{At: to, Kind: FaultClearDegrade, A: a, B: b})
	}
	return p
}

// LinkFlap models a flapping link: starting at from, each period opens with
// duty*period of outage followed by (1-duty)*period of service, until to
// (the link is guaranteed up at to). It expands into plain down/up faults at
// build time, so mirrors, logging, and ordering all see ordinary link faults.
func (p *FaultPlan) LinkFlap(a, b string, period time.Duration, duty float64, from, to time.Duration) *FaultPlan {
	if period <= 0 || duty <= 0 || duty >= 1 || to <= from {
		p.fail(fmt.Errorf("simnet: LinkFlap(%q, %q): need period > 0, 0 < duty < 1, to > from", a, b))
		return p
	}
	downFor := time.Duration(duty * float64(period))
	for t := from; t < to; t += period {
		up := t + downFor
		if up > to {
			up = to
		}
		p.add(Fault{At: t, Kind: FaultLinkDown, A: a, B: b})
		p.add(Fault{At: up, Kind: FaultLinkUp, A: a, B: b})
	}
	return p
}

// SlowHost divides host h's compute speed by factor between from and to,
// modeling a straggler (thermal throttling, a failing disk, a noisy
// neighbor). to <= from leaves the host slow for the rest of the run.
func (p *FaultPlan) SlowHost(h string, factor float64, from, to time.Duration) *FaultPlan {
	p.add(Fault{At: from, Kind: FaultSlowHost, A: h, Factor: factor})
	if to > from {
		p.add(Fault{At: to, Kind: FaultRestoreHost, A: h})
	}
	return p
}

// String renders the plan one fault per line, in execution order.
func (p *FaultPlan) String() string {
	faults := p.ordered()
	s := ""
	for _, f := range faults {
		target := f.A
		switch f.Kind {
		case FaultLinkDown, FaultLinkUp:
			target = f.A + "<->" + f.B
		case FaultDegrade:
			target = fmt.Sprintf("%s->%s +%v loss=%.2f", f.A, f.B, f.AddLatency, f.LossPct)
		case FaultClearDegrade:
			target = f.A + "->" + f.B
		case FaultPartition, FaultHeal:
			target = fmt.Sprintf("%v | %v", f.GroupA, f.GroupB)
		case FaultSlowHost:
			target = fmt.Sprintf("%s /%.1f", f.A, f.Factor)
		}
		s += fmt.Sprintf("%12v %-13s %s\n", f.At, f.Kind, target)
	}
	return s
}

// ordered returns the faults sorted by time, same-instant ties broken by
// insertion sequence — never by kind, so a plan that downs a link and crashes
// a host at the same instant applies them exactly as written.
func (p *FaultPlan) ordered() []Fault {
	out := make([]Fault, len(p.Faults))
	copy(out, p.Faults)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// validateLink checks that the duplex link a<->b exists.
func (n *Network) validateLink(a, b string) error {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return fmt.Errorf("simnet: fault plan: unknown node in link %q<->%q", a, b)
	}
	for _, ld := range na.links {
		if ld.to == nb {
			return nil
		}
	}
	return fmt.Errorf("simnet: fault plan: no link %q<->%q", a, b)
}

// ApplyPlan validates the plan against the topology and schedules every
// fault on the kernel timeline. It must be called before the faults' times
// pass (normally before Run). Faults at the same instant execute in
// insertion order.
func (n *Network) ApplyPlan(p *FaultPlan) error {
	if p.err != nil {
		return p.err
	}
	for _, f := range p.Faults {
		switch f.Kind {
		case FaultLinkDown, FaultLinkUp:
			if err := n.validateLink(f.A, f.B); err != nil {
				return err
			}
		case FaultDegrade, FaultClearDegrade:
			if err := n.validateLink(f.A, f.B); err != nil {
				return err
			}
			if f.Kind == FaultDegrade {
				if f.AddLatency < 0 {
					return fmt.Errorf("simnet: fault plan: degrade %q->%q: negative latency %v", f.A, f.B, f.AddLatency)
				}
				if f.LossPct < 0 || f.LossPct >= 1 {
					return fmt.Errorf("simnet: fault plan: degrade %q->%q: loss %v outside [0,1)", f.A, f.B, f.LossPct)
				}
			}
		case FaultCrash, FaultRestart:
			nd := n.nodes[f.A]
			if nd == nil || !nd.isHost {
				return fmt.Errorf("simnet: fault plan: %q is not a host", f.A)
			}
		case FaultSlowHost, FaultRestoreHost:
			nd := n.nodes[f.A]
			if nd == nil || !nd.isHost {
				return fmt.Errorf("simnet: fault plan: %q is not a host", f.A)
			}
			if f.Kind == FaultSlowHost && f.Factor <= 0 {
				return fmt.Errorf("simnet: fault plan: slow-host %q: factor %v must be > 0", f.A, f.Factor)
			}
		case FaultPartition, FaultHeal:
			if len(f.GroupA) == 0 || len(f.GroupB) == 0 {
				return fmt.Errorf("simnet: fault plan: partition with an empty group")
			}
			for _, name := range append(append([]string{}, f.GroupA...), f.GroupB...) {
				if n.nodes[name] == nil {
					return fmt.Errorf("simnet: fault plan: partition names unknown node %q", name)
				}
			}
		default:
			return fmt.Errorf("simnet: fault plan: unknown fault kind %v", f.Kind)
		}
	}
	now := n.K.Now()
	for _, f := range p.ordered() {
		f := f
		d := f.At - now
		if d < 0 {
			d = 0
		}
		n.K.After(d, func() { n.execute(f) })
	}
	return nil
}

func (n *Network) execute(f Fault) {
	switch f.Kind {
	case FaultLinkDown:
		n.SetLinkDown(f.A, f.B)
	case FaultLinkUp:
		n.SetLinkUp(f.A, f.B)
	case FaultDegrade:
		n.SetLinkDegraded(f.A, f.B, f.AddLatency, f.LossPct)
	case FaultClearDegrade:
		n.SetLinkDegraded(f.A, f.B, 0, 0)
	case FaultPartition:
		n.SetPartition(f.GroupA, f.GroupB, true)
	case FaultHeal:
		n.SetPartition(f.GroupA, f.GroupB, false)
	case FaultCrash:
		if err := n.CrashHost(f.A); err != nil {
			panic(err) // validated at ApplyPlan; unreachable
		}
	case FaultRestart:
		if err := n.RestartHost(f.A); err != nil {
			panic(err)
		}
	case FaultSlowHost:
		if err := n.SetHostSpeed(f.A, f.Factor); err != nil {
			panic(err)
		}
	case FaultRestoreHost:
		if err := n.SetHostSpeed(f.A, 1); err != nil {
			panic(err)
		}
	}
}
