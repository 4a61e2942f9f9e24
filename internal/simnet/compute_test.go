package simnet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nxcluster/internal/sim"
	"nxcluster/internal/transport"
)

// computeRec is one slice end a contended compute run observes.
type computeRec struct {
	at    time.Duration
	who   string
	slice int
}

// contendedCompute runs three processes on a 1-CPU host (speed 1.5), two on
// a 1-CPU host so fast that some charges scale to nothing, and one alone on
// such a host, each charging compute in slices of tied and untied lengths; a
// straggler factor lands mid-series. With each, the slices go through transport.ComputeEach;
// otherwise through the Compute loop it stands for.
func contendedCompute(t *testing.T, each bool) ([]computeRec, uint64, time.Duration) {
	t.Helper()
	k := sim.New()
	n := New(k)
	n.AddHost("h", HostConfig{Speed: 1.5, CPUs: 1})
	n.AddHost("fast", HostConfig{Speed: 4, CPUs: 1})
	n.AddHost("solo", HostConfig{Speed: 4, CPUs: 1})
	var log []computeRec
	work := func(who string, lens []time.Duration) func(transport.Env) {
		return func(env transport.Env) {
			for round := 0; round < 3; round++ {
				i := round
				step := func() time.Duration {
					log = append(log, computeRec{env.Now(), who, i})
					if i++; i == round+8 {
						return 0
					}
					return lens[i%len(lens)]
				}
				if d := lens[round%len(lens)]; each {
					transport.ComputeEach(env, d, step)
				} else {
					for d > 0 {
						env.Compute(d)
						d = step()
					}
				}
				log = append(log, computeRec{env.Now(), who, -1})
				env.Sleep(time.Duration(round) * time.Millisecond)
			}
		}
	}
	ms := time.Millisecond
	n.Node("h").SpawnOn("a", work("a", []time.Duration{2 * ms, 3 * ms}))
	n.Node("h").SpawnOn("b", work("b", []time.Duration{3 * ms, ms, 2 * ms}))
	n.Node("h").SpawnOn("c", work("c", []time.Duration{ms}))
	n.Node("fast").SpawnOn("d", work("d", []time.Duration{1, 2, 3, 5}))
	n.Node("fast").SpawnOn("e", work("e", []time.Duration{3, 4}))
	n.Node("solo").SpawnOn("f", work("f", []time.Duration{5, 1}))
	k.After(20*ms, func() {
		if err := n.SetHostSpeed("h", 2); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return log, k.Events(), k.Now()
}

// TestComputeEachMatchesComputeLoop: the CPU queue order, every slice's end
// time, the event count and the final clock are the Compute loop's.
func TestComputeEachMatchesComputeLoop(t *testing.T) {
	want, wantEv, wantNow := contendedCompute(t, false)
	got, gotEv, gotNow := contendedCompute(t, true)
	if !reflect.DeepEqual(got, want) {
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("record %d: ComputeEach %v, Compute loop %v", i, got[i], want[i])
			}
		}
		t.Fatalf("ComputeEach logged %d records, the Compute loop %d", len(got), len(want))
	}
	if gotEv != wantEv || gotNow != wantNow {
		t.Fatalf("ComputeEach: %d events, clock %v; Compute loop: %d, %v", gotEv, gotNow, wantEv, wantNow)
	}
}

// TestComputeEachZeroAlloc: after the first call has built its pooled
// wakeup step, a series of slices allocates nothing.
func TestComputeEachZeroAlloc(t *testing.T) {
	k := sim.New()
	n := New(k)
	n.AddHost("h", HostConfig{})
	n.Node("h").SpawnDaemonOn("w", func(env transport.Env) {
		left := 0
		step := func() time.Duration {
			if left--; left == 0 {
				return 0
			}
			return time.Millisecond
		}
		for {
			left = 10
			transport.ComputeEach(env, time.Millisecond, step)
		}
	})
	k.RunUntil(25 * time.Millisecond)
	if allocs := testing.AllocsPerRun(100, func() { k.RunUntil(k.Now() + 10*time.Millisecond) }); allocs != 0 {
		t.Fatalf("%v allocs per 10-slice series, want 0", allocs)
	}
	k.Shutdown()
}

// countingEnv is an Env that only records its Compute charges: it lacks
// ComputeEach, as TCPEnv does.
type countingEnv struct {
	transport.Env
	charges []time.Duration
}

func (e *countingEnv) Compute(d time.Duration) { e.charges = append(e.charges, d) }

// TestComputeEachFallback: an Env without ComputeEach gets the plain loop —
// charge, step, charge — and TCPEnv is one.
func TestComputeEachFallback(t *testing.T) {
	env := &countingEnv{}
	var trail []string
	left := time.Duration(3)
	transport.ComputeEach(env, 5, func() time.Duration {
		trail = append(trail, fmt.Sprint("step after ", env.charges))
		left--
		return left
	})
	if want := []time.Duration{5, 2, 1}; !reflect.DeepEqual(env.charges, want) {
		t.Fatalf("charges %v, want %v", env.charges, want)
	}
	if want := []string{"step after [5ns]", "step after [5ns 2ns]", "step after [5ns 2ns 1ns]"}; !reflect.DeepEqual(trail, want) {
		t.Fatalf("steps %q, want %q", trail, want)
	}
	transport.ComputeEach(env, 0, func() time.Duration { t.Fatal("step called for a zero charge"); return 0 })

	tcp := transport.NewTCPEnv("h")
	calls := 0
	start := tcp.Now()
	transport.ComputeEach(tcp, time.Millisecond, func() time.Duration {
		if calls++; calls == 3 {
			return 0
		}
		return time.Millisecond
	})
	if calls != 3 || tcp.Now()-start < 3*time.Millisecond {
		t.Fatalf("TCPEnv: %d steps in %v, want 3 in at least 3ms", calls, tcp.Now()-start)
	}
}
