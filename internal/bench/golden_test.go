package bench

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"nxcluster/internal/cluster"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite the report goldens under testdata/")

// TestGoldenReports pins byte for byte the reports no scenario kind renders
// (Figures 1-5, Table 3, the bandwidth sweep and the latency decomposition)
// and Tables 4-6 at the capacity-4 scale the docs quote, as `simulator run
// scenarios/paper/table4.yaml` prints them. Each testdata/<name>.txt holds the report followed by a blank line, as
// `simulator run` separates its reports. Regenerate intended drift with
// `go test ./internal/bench -run Golden -update`.
func TestGoldenReports(t *testing.T) {
	for _, tc := range []struct {
		name   string
		render func() (string, error)
	}{
		{"figure1", Figure1},
		{"figure2", Figure2},
		{"figure3", Figure3},
		{"figure4", Figure4},
		{"figure5", Figure5},
		{"table3", func() (string, error) { return FormatTable3(), nil }},
		{"sweep", func() (string, error) {
			sweeps, err := RunBandwidthSweep(Table2Config{Rounds: 4})
			return FormatSweep(sweeps), err
		}},
		{"decomp", func() (string, error) {
			ds, err := RunDecomposition(Table2Config{})
			return FormatDecomposition(ds), err
		}},
		{"table4", func() (string, error) {
			rep, err := RunKnapsack(KnapsackConfig{Capacity: 4})
			if err != nil {
				return "", err
			}
			return FormatTable4(rep) + "\n" + FormatTable5(rep) + "\n" + FormatTable6(rep), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.render()
			if err != nil {
				t.Fatal(err)
			}
			got := []byte(out + "\n")
			path := filepath.Join("testdata", tc.name+".txt")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from %s (rerun with -update if intended):\n%s", tc.name, path, got)
			}
		})
	}
}

// goldenOutputs runs a small Table 2 + Tables 4-6 sweep and hashes the
// formatted output. Every virtual-time number appears in the formatted
// tables, so a stable hash across host configurations means the simulation
// results are bit-identical.
func goldenOutputs(t *testing.T, workers int) uint64 {
	t.Helper()
	rows, err := RunTable2(Table2Config{Rounds: 2, Workers: workers})
	if err != nil {
		t.Fatalf("table2: %v", err)
	}
	rep, err := RunKnapsack(KnapsackConfig{Capacity: 3, Workers: workers})
	if err != nil {
		t.Fatalf("knapsack: %v", err)
	}
	h := fnv.New64a()
	fmt.Fprint(h, FormatTable2(rows))
	fmt.Fprint(h, FormatTable4(rep))
	fmt.Fprint(h, FormatTable5(rep))
	fmt.Fprint(h, FormatTable6(rep))
	return h.Sum64()
}

// TestGoldenOutputsHostConfigInvariant asserts the contract the parallel
// sweep and the kernel fast paths must preserve: the formatted Table 2 and
// Table 4/5/6 outputs are identical whether the host runs with GOMAXPROCS=1
// or 8 and whether the sweep runs sequentially (Workers: 1) or fanned out
// across RunParallel workers (Workers: 8). Only wall-clock may differ.
func TestGoldenOutputsHostConfigInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run golden sweep")
	}
	combos := []struct {
		gomaxprocs int
		workers    int
	}{
		{1, 1}, // fully sequential
		{1, 8}, // RunParallel fan-out, single host thread
		{8, 1}, // sequential sweep, parallel runtime
		{8, 8}, // RunParallel fan-out across host threads
	}
	hashes := make([]uint64, len(combos))
	for i, c := range combos {
		prev := runtime.GOMAXPROCS(c.gomaxprocs)
		hashes[i] = goldenOutputs(t, c.workers)
		runtime.GOMAXPROCS(prev)
	}
	for i := 1; i < len(hashes); i++ {
		if hashes[i] != hashes[0] {
			t.Errorf("output hash diverged: GOMAXPROCS=%d Workers=%d -> %#x, want %#x (GOMAXPROCS=%d Workers=%d)",
				combos[i].gomaxprocs, combos[i].workers, hashes[i],
				combos[0].gomaxprocs, combos[0].workers, hashes[0])
		}
	}
}

// traceHash runs a wide-area knapsack solve with the kernel's Trace hook
// feeding an FNV hash, capturing the exact event interleaving (every
// process start/exit and wakeup, stamped with virtual time).
func traceHash(t *testing.T) uint64 {
	t.Helper()
	h := fnv.New64a()
	tb := cluster.NewTestbed(cluster.Options{})
	defer tb.K.Shutdown()
	tb.K.Trace = func(at time.Duration, format string, args ...interface{}) {
		fmt.Fprintf(h, "%d ", at)
		fmt.Fprintf(h, format, args...)
		h.Write([]byte{'\n'})
	}
	in := knapsack.Normalized(50, 2)
	w := mpi.NewWorld(tb.Placements(cluster.SystemWide, true))
	w.Launch(func(c *mpi.Comm) error {
		_, err := knapsack.Run(c, in, knapsack.DefaultParams())
		return err
	})
	if err := tb.K.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("world: %v", err)
	}
	return h.Sum64()
}

// TestGoldenEventTraceHostConfigInvariant pins the determinism contract at
// its finest grain: the kernel's event trace — not just the aggregated
// tables — is bit-identical across host thread counts.
func TestGoldenEventTraceHostConfigInvariant(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	h1 := traceHash(t)
	runtime.GOMAXPROCS(8)
	h8 := traceHash(t)
	runtime.GOMAXPROCS(prev)
	if h1 != h8 {
		t.Errorf("event trace diverged: GOMAXPROCS=1 -> %#x, GOMAXPROCS=8 -> %#x", h1, h8)
	}
}
