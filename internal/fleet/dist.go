// Package fleet is the open-loop, fleet-scale workload layer: a seeded
// deterministic arrival generator with heavy-tailed job sizes and
// time-varying rates, driving an event-style control plane (tree routes
// through the site gateways, sharded per-site allocation, batched
// heartbeats and batched MDS publishing) over a cluster.NewFleet topology.
// A 10k-host / 1M-job run costs roughly a dozen kernel events per job, so
// it completes in seconds of wall clock while staying bit-deterministic
// across runs and GOMAXPROCS settings.
//
// Unlike the paper-shaped workloads (closed-loop MPI programs), the
// generator is open loop: arrivals follow the configured rate process
// regardless of how the fleet is coping — no back-pressure — which is what
// exposes saturation behavior (queue growth, latency tails) at scale.
package fleet

import (
	"fmt"
	"math"
	"time"
)

// RNG is a splitmix64 stream, the same generator the simulation kernel
// uses, but owned by the fleet engine so workload draws never perturb —
// and are never perturbed by — kernel-level randomness.
type RNG struct{ s uint64 }

// NewRNG seeds a stream; seed 0 is mapped to 1 so the zero value is usable.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 1
	}
	return &RNG{s: seed}
}

// Uint64 returns the next raw draw.
func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n).
func (r *RNG) Intn(n int) int {
	return int(r.Uint64() % uint64(n))
}

// Size-distribution kinds.
const (
	DistFixed     = "fixed"
	DistPareto    = "pareto"
	DistLognormal = "lognormal"
)

// SizeDist describes the job-size (service-time) distribution. Real grid
// job mixes are heavy-tailed — most jobs are short, a few are enormous —
// which bounded Pareto and lognormal both capture; fixed sizes remain for
// calibration runs.
type SizeDist struct {
	// Kind selects the family: fixed, pareto, or lognormal.
	Kind string
	// Mean is the fixed kind's constant size.
	Mean time.Duration
	// Alpha is the bounded Pareto tail exponent (heavier tail as it
	// approaches 1; typical grid fits use 1.1–1.5).
	Alpha float64
	// Min and Max bound the Pareto support.
	Min, Max time.Duration
	// Mu and Sigma parameterize the lognormal in log-seconds:
	// exp(Mu + Sigma*Z) seconds.
	Mu, Sigma float64
}

// Validate reports a malformed distribution; the scenario DSL surfaces
// these as strict decode errors.
func (d SizeDist) Validate() error {
	switch d.Kind {
	case DistFixed:
		if d.Mean <= 0 {
			return fmt.Errorf("fleet: fixed size distribution needs mean > 0, got %v", d.Mean)
		}
	case DistPareto:
		if d.Alpha <= 0 {
			return fmt.Errorf("fleet: pareto alpha must be > 0, got %g", d.Alpha)
		}
		if d.Min <= 0 || d.Max <= d.Min {
			return fmt.Errorf("fleet: pareto needs 0 < min < max, got min=%v max=%v", d.Min, d.Max)
		}
	case DistLognormal:
		if d.Sigma <= 0 {
			return fmt.Errorf("fleet: lognormal sigma must be > 0, got %g", d.Sigma)
		}
	case "":
		return fmt.Errorf("fleet: size distribution kind is required (fixed, pareto, lognormal)")
	default:
		return fmt.Errorf("fleet: unknown size distribution %q (want fixed, pareto, lognormal)", d.Kind)
	}
	return nil
}

// MeanDuration returns the distribution's analytic mean, for capacity math
// and distribution-shape tests.
func (d SizeDist) MeanDuration() time.Duration {
	switch d.Kind {
	case DistFixed:
		return d.Mean
	case DistPareto:
		l, h := d.Min.Seconds(), d.Max.Seconds()
		a := d.Alpha
		var mean float64
		if a == 1 {
			mean = (h * l / (h - l)) * math.Log(h/l)
		} else {
			mean = math.Pow(l, a) / (1 - math.Pow(l/h, a)) * (a / (a - 1)) *
				(1/math.Pow(l, a-1) - 1/math.Pow(h, a-1))
		}
		return time.Duration(mean * float64(time.Second))
	case DistLognormal:
		return time.Duration(math.Exp(d.Mu+d.Sigma*d.Sigma/2) * float64(time.Second))
	}
	return 0
}

// Sample draws one job size. Draw count per call is fixed per kind (one
// uniform for fixed/pareto, two for lognormal), so the stream stays aligned
// across identical runs.
func (d SizeDist) Sample(r *RNG) time.Duration {
	switch d.Kind {
	case DistPareto:
		// Bounded Pareto inverse CDF on [Min, Max].
		u := r.Float64()
		l, h := d.Min.Seconds(), d.Max.Seconds()
		a := d.Alpha
		x := l / math.Pow(1-u*(1-math.Pow(l/h, a)), 1/a)
		return clampSize(time.Duration(x * float64(time.Second)))
	case DistLognormal:
		// Box–Muller from two uniforms.
		u1, u2 := r.Float64(), r.Float64()
		if u1 < 1e-300 {
			u1 = 1e-300
		}
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		return clampSize(time.Duration(math.Exp(d.Mu+d.Sigma*z) * float64(time.Second)))
	default: // fixed
		return d.Mean
	}
}

// clampSize floors a sampled size at 1µs so degenerate draws cannot produce
// zero-length (or, through float rounding, negative) service events.
func clampSize(d time.Duration) time.Duration {
	if d < time.Microsecond {
		return time.Microsecond
	}
	return d
}
