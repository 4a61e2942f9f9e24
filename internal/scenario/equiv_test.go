package scenario

import (
	"os"
	"path/filepath"
	"testing"

	"nxcluster/internal/bench"
)

func loadShipped(t *testing.T, file string) *Spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "scenarios", file))
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	return s
}

// configOf is the config s's kind entry hands its runner.
func configOf[C any](t *testing.T, s *Spec) C {
	t.Helper()
	cfg, err := kindOf(s.Kind).config(s)
	if err != nil {
		t.Fatal(err)
	}
	return cfg.(C)
}

// TestTable2Equivalence: the ported Table 2 scenario must reproduce the
// legacy bench.RunTable2 results bit for bit (fingerprint equality renders
// every latency in nanoseconds and every bandwidth via shortest-exact float).
func TestTable2Equivalence(t *testing.T) {
	s := loadShipped(t, "table2-rtt.yaml")
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("scenario failed: %v", res.Failures)
	}
	rows, err := bench.RunTable2(configOf[bench.Table2Config](t, s))
	if err != nil {
		t.Fatal(err)
	}
	if fp := fingerprintTable2(rows); fp != res.Fingerprint {
		t.Errorf("legacy fingerprint differs:\n legacy   %q\n scenario %q", fp, res.Fingerprint)
	}
}

// TestTable4Equivalence: same bit-equality contract for the Table 4 sweep.
func TestTable4Equivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 4 sweep in -short mode")
	}
	s := loadShipped(t, "table4-sweep.yaml")
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("scenario failed: %v", res.Failures)
	}
	rep, err := bench.RunKnapsack(configOf[bench.KnapsackConfig](t, s))
	if err != nil {
		t.Fatal(err)
	}
	if fp := fingerprintTable4(rep); fp != res.Fingerprint {
		t.Errorf("legacy fingerprint differs:\n legacy   %q\n scenario %q", fp, res.Fingerprint)
	}
}

// TestGridEquivalence: the grid kind must hand RunGridKnapsack exactly the
// result the legacy path computes.
func TestGridEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("grid solve in -short mode")
	}
	s := loadShipped(t, "grid-wan-outage.yaml")
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatalf("scenario failed: %v", res.Failures)
	}
	gres, err := bench.RunGridKnapsack(configOf[bench.GridConfig](t, s))
	if err != nil {
		t.Fatal(err)
	}
	if fp := fingerprintGrid(gres); fp != res.Fingerprint {
		t.Errorf("legacy fingerprint differs:\n legacy   %q\n scenario %q", fp, res.Fingerprint)
	}
}
