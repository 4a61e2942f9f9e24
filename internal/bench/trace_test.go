package bench

import (
	"runtime"
	"testing"

	"nxcluster/internal/obs"
)

// chaosTraceHash runs the full fault-injection scenario — crash, WAN flap,
// boundary flap, every recovery layer engaged — with tracing on and a
// seeded kernel RNG, and hashes the byte-exact JSONL trace.
func chaosTraceHash(t *testing.T) uint64 {
	t.Helper()
	cfg := baseConfig()
	cfg.Plan = chaosPlan()
	o := obs.New()
	cfg.Options.Obs = o
	cfg.Options.Seed = 42
	rep := runOnce(t, cfg)
	if !rep.Completed {
		t.Fatal("traced chaos run did not complete before the horizon")
	}
	if rep.Best != rep.WantBest {
		t.Fatalf("traced chaos run best = %d, want %d", rep.Best, rep.WantBest)
	}
	if o.Len() == 0 {
		t.Fatal("traced chaos run recorded no events")
	}
	return o.Hash()
}

// TestChaosTraceDeterministic pins the whole observability determinism
// story at its hardest point: a chaos run — faults, backoff jitter from the
// kernel's seeded stream, requeues, relay re-registration — replays with a
// bit-identical trace, run to run and across host thread counts. Any
// wall-clock or global-randomness leak into retry timing or event order
// breaks this test.
func TestChaosTraceDeterministic(t *testing.T) {
	h1 := chaosTraceHash(t)
	h2 := chaosTraceHash(t)
	if h1 != h2 {
		t.Errorf("trace diverged run to run: %#x != %#x", h1, h2)
	}
	prev := runtime.GOMAXPROCS(1)
	h3 := chaosTraceHash(t)
	runtime.GOMAXPROCS(prev)
	if h3 != h1 {
		t.Errorf("trace diverged across host threads: GOMAXPROCS=1 %#x, parallel %#x", h3, h1)
	}
}
