package scenario

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/bench"
	"nxcluster/internal/cluster"
	"nxcluster/internal/obs"
)

// tinyChaos is a small fault-free chaos spec for exercising Run's
// bookkeeping without the shipped scenarios' 90s horizons.
func tinyChaos(name string, asserts ...AssertSpec) *Spec {
	return &Spec{
		Name:    name,
		Kind:    KindChaos,
		Chaos:   &bench.ChaosConfig{Items: 8, Capacity: 2, System: cluster.SystemCompas, Horizon: 30 * time.Second},
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
// the two traces part, not just that their hashes differ. The runs kept only
// hashes, so that comes from a recorded re-run of the pair, which may also
// find that the divergence does not reproduce.
func TestTraceDivergenceNamesFirstEvent(t *testing.T) {
	record := func(bytes int64) *obs.Observer {
		o := obs.New()
		o.Emit(time.Millisecond, "net", "dial", "rwcp-sun")
		o.Emit(2*time.Millisecond, "net", "deliver", "etl-gw", obs.Int("bytes", bytes))
		return o
	}
	hashOnly := func(bytes int64) *outcome { return &outcome{hash: record(bytes).Hash()} }
	rerun := func(x, y int64, err error) func() (a, b *obs.Observer, err error) {
		return func() (a, b *obs.Observer, _ error) { return record(x), record(y), err }
	}
	noRerun := func() (a, b *obs.Observer, err error) {
		t.Error("re-ran a pair that needs no re-run")
		return nil, nil, nil
	}
	h64, h65 := record(64).Hash(), record(65).Hash()
	head := fmt.Sprintf("determinism: trace hash %016x != %016x across identical runs; ", h64, h65)
	atEvent1 := head + "first divergence at event 1: " +
		`{"at":2000000,"ph":"i","cat":"net","name":"deliver","track":"etl-gw","bytes":64} | ` +
		`{"at":2000000,"ph":"i","cat":"net","name":"deliver","track":"etl-gw","bytes":65}`
	for _, tc := range []struct {
		name  string
		a, b  *outcome
		rerun func() (a, b *obs.Observer, err error)
		want  string
	}{
		{"hash-only, reproduced", hashOnly(64), hashOnly(65), rerun(64, 65, nil), atEvent1},
		{"hash-only, not reproduced", hashOnly(64), hashOnly(65), rerun(64, 64, nil),
			head + fmt.Sprintf("recorded again, the pair agreed (%016x): the divergence did not reproduce", h64)},
		{"hash-only, re-run fails", hashOnly(64), hashOnly(65), rerun(0, 0, errors.New("no items")),
			head + "recording the pair again failed: no items"},
		{"hash-only, identical", hashOnly(64), hashOnly(64), noRerun, ""},
	} {
		if got := divergence(tc.a, tc.b, tc.rerun); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
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
		if got := divergence(a, of(tc.b), nil); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
