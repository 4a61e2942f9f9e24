package main

import (
	"runtime"
	"time"

	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// cost is what a probe loop cost the host.
type cost struct {
	ns      float64 // wall nanoseconds
	mallocs float64 // heap objects allocated
	bytes   float64 // heap bytes allocated
}

// measure runs fn once and returns its cost. Probes loop inside fn a fixed
// number of times and divide.
func measure(fn func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return cost{
		ns:      float64(d.Nanoseconds()),
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		bytes:   float64(m1.TotalAlloc - m0.TotalAlloc),
	}
}

// scaled returns n at full scale and n/50 (at least min) in quick mode.
func scaled(cfg runConfig, n, min int) int {
	if !cfg.quick {
		return n
	}
	if n/50 < min {
		return min
	}
	return n / 50
}

// fastLink is wide enough that the simulator, not the modelled wire, sets
// the host time of a probe.
var fastLink = simnet.LinkConfig{Latency: 100 * time.Microsecond, Bandwidth: 100 << 20}

// twoHosts builds the two-host simulated network the probes use: hosts "a"
// and "b" joined by one link.
func twoHosts(link simnet.LinkConfig) (*sim.Kernel, *simnet.Network) {
	k := sim.New()
	n := simnet.New(k)
	n.AddHost("a", simnet.HostConfig{})
	n.AddHost("b", simnet.HostConfig{})
	n.Connect("a", "b", link)
	return k, n
}

// drain reads exactly want bytes from c.
func drain(env transport.Env, c transport.Conn, buf []byte, want int) error {
	for want > 0 {
		n, err := c.Read(env, buf)
		if err != nil {
			return err
		}
		want -= n
	}
	return nil
}
