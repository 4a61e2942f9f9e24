package proxy

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/sim"
	"nxcluster/internal/simnet"
	"nxcluster/internal/transport"
)

// blockingEnv is a simnet Env whose in-place relay declines, so
// transport.Relay takes its blocking loop; the processes it spawns are
// wrapped the same way.
type blockingEnv struct{ *simnet.Env }

func (blockingEnv) Relay(transport.Conn, transport.Conn, *transport.Pump) (bool, error) {
	return false, nil
}

func (e blockingEnv) Spawn(name string, fn func(transport.Env)) {
	e.Env.Spawn(name, func(c transport.Env) { fn(blockingEnv{c.(*simnet.Env)}) })
}

func (e blockingEnv) SpawnService(name string, fn func(transport.Env)) {
	e.Env.SpawnService(name, func(c transport.Env) { fn(blockingEnv{c.(*simnet.Env)}) })
}

// relayRun is what one run of relayedStreams observed.
type relayRun struct {
	Reads       []string // "side at n sum" per Read that returned data, then "side end err"
	RelayEvents []string // the pumps' recv/fwd events
	Bytes       int64    // the relay's byte counter
	Hash        uint64   // the whole trace
	Events      uint64
	Now         time.Duration
}

// relayedStreams relays seeded random writes in both directions between a
// and b through a pump pair spliced on host r, with a seeded mix of the
// cases the in-place relay must get right: a relay buffer larger than the
// window (writes wait for credit), a one-CPU relay host shared with a
// compute hog (the per-buffer charge waits for the CPU), the flow model with
// loss, and an end by EOF, by a peer's reset, or by r crashing mid-stream.
// With blocking the pumps run transport.Relay's blocking loop.
func relayedStreams(t testing.TB, seed uint64, blocking bool) relayRun {
	var r relayRun
	k := sim.New()
	k.Seed(seed)
	rnd := func(n uint64) uint64 { return k.Rand() % n }
	n := simnet.New(k)
	o := obs.New()
	n.Obs = o
	n.MTU = 256 + int(rnd(8192))
	n.AddHost("a", simnet.HostConfig{})
	n.AddHost("r", simnet.HostConfig{CPUs: 1, Speed: []float64{0.5, 1, 3}[rnd(3)]})
	n.AddHost("b", simnet.HostConfig{})
	link := func() simnet.LinkConfig {
		return simnet.LinkConfig{
			Latency:   time.Duration(1+rnd(2000)) * time.Microsecond,
			Bandwidth: int64(256<<10) << rnd(5),
		}
	}
	n.Connect("a", "r", link())
	n.Connect("r", "b", link())
	if rnd(3) == 0 {
		n.EnableFlowModel(simnet.FlowConfig{Seed: seed})
		n.SetLinkDegraded("r", "b", 0, float64(1+rnd(5)))
	}
	cfg := RelayConfig{
		BufBytes:  []int{512, 4096, simnet.DefaultWindow + 64<<10}[rnd(3)],
		PerBuffer: []time.Duration{0, 50 * time.Microsecond, time.Millisecond}[rnd(3)],
	}
	if rnd(2) == 0 {
		n.Node("r").SpawnOn("hog", func(env transport.Env) {
			for i := 0; i < 20; i++ {
				env.Compute(time.Duration(100+rnd(2000)) * time.Microsecond)
				env.Sleep(time.Duration(rnd(500)) * time.Microsecond)
			}
		})
	}
	ending := rnd(3) // 0: EOF, 1: a resets, 2: r crashes
	if ending == 2 {
		k.After(time.Duration(1+rnd(40))*time.Millisecond, func() { _ = n.CrashHost("r") })
	}

	// read drains c, logging each arrival and how the stream ended.
	read := func(env transport.Env, side string, c transport.Conn) {
		buf := make([]byte, 1+rnd(9000))
		for {
			m, err := c.Read(env, buf)
			if m > 0 {
				h := fnv.New32a()
				h.Write(buf[:m])
				r.Reads = append(r.Reads, fmt.Sprint(side, " ", env.Now(), " ", m, " ", h.Sum32()))
			}
			if err != nil {
				r.Reads = append(r.Reads, fmt.Sprint(side, " end ", err))
				return
			}
		}
	}
	// write sends seeded pieces of up to three relay buffers (and 512 KiB)
	// each.
	write := func(env transport.Env, c transport.Conn, pieces int) error {
		for i := 0; i < pieces; i++ {
			b := make([]byte, 1+rnd(uint64(min(3*cfg.BufBytes, 512<<10))))
			for j := range b {
				b[j] = byte(k.Rand())
			}
			if _, err := c.Write(env, b); err != nil {
				return err
			}
			env.Sleep(time.Duration(rnd(3000)) * time.Microsecond)
		}
		return nil
	}

	n.Node("r").SpawnDaemonOn("relay", func(env transport.Env) {
		if blocking {
			env = blockingEnv{env.(*simnet.Env)}
		}
		l, err := env.Listen(8000)
		if err != nil {
			t.Errorf("relay listen: %v", err)
			return
		}
		ca, err := l.Accept(env)
		if err != nil {
			return
		}
		cb, err := env.Dial("b:9000")
		if err != nil {
			_ = ca.Close(env)
			return
		}
		splice(env, "t", ca, cb, cfg, &r.Bytes)
	})
	n.Node("b").SpawnDaemonOn("b", func(env transport.Env) {
		l, err := env.Listen(9000)
		if err != nil {
			t.Errorf("b listen: %v", err)
			return
		}
		c, err := l.Accept(env)
		if err != nil {
			return
		}
		env.Spawn("b-write", func(e transport.Env) { _ = write(e, c, int(rnd(4))) })
		read(env, "b", c)
		_ = c.Close(env)
	})
	n.Node("a").SpawnOn("a", func(env transport.Env) {
		c, err := env.Dial("r:8000")
		if err != nil {
			r.Reads = append(r.Reads, fmt.Sprint("a dial ", err))
			return
		}
		env.Spawn("a-read", func(e transport.Env) { read(e, "a", c) })
		err = write(env, c, 1+int(rnd(8)))
		switch {
		case err != nil:
			r.Reads = append(r.Reads, fmt.Sprint("a write ", err))
		case ending == 1:
			_ = transport.Abort(env, c)
		default:
			_ = c.Close(env)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range o.Events() {
		if e.Cat == "relay" {
			r.RelayEvents = append(r.RelayEvents, fmt.Sprint(e.At, " ", e.Name, " ", e.Track, " ", e.Fields))
		}
	}
	r.Hash, r.Events, r.Now = o.Hash(), k.Events(), k.Now()
	k.Shutdown()
	return r
}

func checkRelayInPlace(t testing.TB, seed uint64) {
	want := relayedStreams(t, seed, true)
	got := relayedStreams(t, seed, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: the in-place relay diverges from the blocking loop: %s", seed, firstRelayDiff(want, got))
	}
}

// firstRelayDiff names the first field of relayRun that differs and the
// first entry where it does.
func firstRelayDiff(want, got relayRun) string {
	for _, f := range []struct {
		name string
		w, g []string
	}{{"Reads", want.Reads, got.Reads}, {"RelayEvents", want.RelayEvents, got.RelayEvents}} {
		for i := 0; i < len(f.w) || i < len(f.g); i++ {
			var w, g string
			if i < len(f.w) {
				w = f.w[i]
			}
			if i < len(f.g) {
				g = f.g[i]
			}
			if w != g {
				return fmt.Sprintf("%s[%d]: blocking %q, in place %q", f.name, i, w, g)
			}
		}
	}
	return fmt.Sprintf("bytes %d/%d, hash %x/%x, events %d/%d, clock %v/%v (blocking/in place)",
		want.Bytes, got.Bytes, want.Hash, got.Hash, want.Events, got.Events, want.Now, got.Now)
}

// TestRelayInPlace: the in-place pumps relay what the blocking loop does, at
// the same instants, with the same relay events, trace and event count.
func TestRelayInPlace(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		checkRelayInPlace(t, seed)
	}
}

// FuzzRelayInPlace is TestRelayInPlace over arbitrary seeds.
func FuzzRelayInPlace(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(0xc0ffee))
	f.Fuzz(func(t *testing.T, seed uint64) { checkRelayInPlace(t, seed) })
}
