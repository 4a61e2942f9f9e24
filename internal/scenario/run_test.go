package scenario

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/chaos"
	"nxcluster/internal/cluster"
	"nxcluster/internal/obs"
)

// tinyChaos is a small fault-free chaos spec for exercising Run's
// bookkeeping without the shipped scenarios' 90s horizons.
func tinyChaos(name string, asserts ...AssertSpec) *Spec {
	return &Spec{
		Name:    name,
		Kind:    KindChaos,
		Chaos:   &chaos.Config{Items: 8, Capacity: 2, System: cluster.SystemCompas, Horizon: 30 * time.Second},
		Asserts: asserts,
	}
}

// TestRunFailurePath: a scenario with an impossible assertion must come back
// Passed=false with the violation recorded — not as a harness error.
func TestRunFailurePath(t *testing.T) {
	res, err := Run(tinyChaos("impossible-ceiling",
		AssertSpec{Name: "exact-optimum"}, AssertSpec{Name: "elapsed-ceiling", Arg: "1ns"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("scenario with a 1ns elapsed ceiling passed")
	}
	// determinism + 2 declared assertions
	if res.Invariants != 3 {
		t.Errorf("invariants = %d, want 3", res.Invariants)
	}
	if len(res.Failures) != 1 || !strings.HasPrefix(res.Failures[0], "elapsed-ceiling: ") {
		t.Errorf("failures = %v, want one elapsed-ceiling violation", res.Failures)
	}
	if res.TraceHash == "0000000000000000" || res.Fingerprint == "" {
		t.Errorf("failing scenario must still carry its witnesses: hash %q fingerprint %q", res.TraceHash, res.Fingerprint)
	}
}

// TestRunBadConfig: a config the runner rejects is a harness error, not a
// failed result, and every run's error says which run it was.
func TestRunBadConfig(t *testing.T) {
	bad := tinyChaos("no-items")
	bad.Chaos.Items = 0
	_, err := Run(bad)
	if err == nil {
		t.Fatal("Run accepted a zero-item config")
	}
	// Both runs of the double run fail; the primary's error comes first.
	lines := strings.Split(err.Error(), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "scenario no-items: ") ||
		!strings.HasPrefix(lines[1], "scenario no-items (replay): ") {
		t.Errorf("error lines = %q, want the primary's then the replay's", lines)
	}
	// A baseline the runner rejects is named as such, and alone.
	foil := tinyChaos("bad-foil")
	foil.Baseline = bad
	_, err = Run(foil)
	if err == nil || !strings.HasPrefix(err.Error(), "scenario bad-foil (baseline): ") || strings.Contains(err.Error(), "\n") {
		t.Errorf("baseline error = %v", err)
	}
}

// TestTraceDivergenceNamesFirstEvent: a failed determinism check says where
// the two traces part, not just that their hashes differ.
func TestTraceDivergenceNamesFirstEvent(t *testing.T) {
	build := func(bytes int64) *outcome {
		o := obs.New()
		o.Emit(time.Millisecond, "net", "dial", "rwcp-sun")
		o.Emit(2*time.Millisecond, "net", "deliver", "etl-gw", obs.Int("bytes", bytes))
		return &outcome{hash: o.Hash(), trace: o}
	}
	a, b := build(64), build(65)
	want := fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs; first divergence at event 1: ", a.hash, b.hash) +
		`{"at":2000000,"ph":"i","cat":"net","name":"deliver","track":"etl-gw","bytes":64} | ` +
		`{"at":2000000,"ph":"i","cat":"net","name":"deliver","track":"etl-gw","bytes":65}`
	if got := divergence(a, b); got != want {
		t.Errorf("divergence:\n got %s\nwant %s", got, want)
	}
	if got := divergence(a, build(64)); got != "" {
		t.Errorf("identical traces diverge: %s", got)
	}
}

// TestFingerprintDivergenceNamesFirstLine: where the hash is fnv(fingerprint)
// the failure names the first row that differs, not two opaque hashes.
func TestFingerprintDivergenceNamesFirstLine(t *testing.T) {
	of := func(fp string) *outcome { return &outcome{fp: fp, full: fp, hash: fnvHash(fp)} }
	a := of("lan|direct|lat=100\nwan|direct|lat=900\nwan|indirect|lat=1200\n")
	for _, tc := range []struct{ name, b, want string }{
		{"identical", a.fp, ""},
		{"second line", "lan|direct|lat=100\nwan|direct|lat=901\nwan|indirect|lat=1300\n",
			`determinism: results diverge at fingerprint line 2: "wan|direct|lat=900" vs "wan|direct|lat=901"`},
		{"row missing", "lan|direct|lat=100\nwan|direct|lat=900\n",
			`determinism: results diverge at fingerprint line 3: "wan|indirect|lat=1200" vs ""`},
	} {
		if got := divergence(a, of(tc.b)); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
