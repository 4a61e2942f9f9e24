package scenario

import (
	"strings"
	"testing"
)

// FuzzScenario hammers the scenario decode path — the YAML-subset parser,
// the JSON branch, and the strict schema layer — with the same contract the
// other wire-facing parsers carry: malformed input must come back as an
// error, never a panic, and anything Parse accepts must survive Validate's
// shape checks without panicking either. Semantic errors (unknown hosts,
// impossible windows) are fine; crashes are not.
func FuzzScenario(f *testing.F) {
	seeds := []string{
		"",
		"name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30s\n",
		"name: t\nkind: table2\nworkload:\n  rounds: 1\n  sizes: [4096, 1048576]\n",
		`{"name": "t", "kind": "table4", "workload": {"items": 10, "capacity": 2}}`,
		"name: t\nkind: gridftp\nworkload:\n  file_size: 1024\n  streams: [1, 8]\n  loss_rates: [0, 0.02]\n",
		"name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30s\nfaults:\n  - crash: {host: compas00, from: 1s, to: 3s}\n  - flap: {a: rwcp-gw, b: rwcp-outer, period: 1s, duty: 0.4, from: 2s, to: 6s}\n  - partition: {a: [\"$rwcp-side\"], b: [\"$etl-side\"], from: 2s, to: 4s}\n",
		"name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30s\nassert:\n  - exact-optimum\n  - registrations: {min: 1, max: 1}\n  - elapsed-ceiling: 60s\nbaseline:\n  workload:\n    recovery: null\n",
		// Fleet blocks: a valid flash-crowd spec with asserts, and the strict-
		// decode rejections (unknown distribution, non-positive rate, host-cap
		// overflow) that must come back as errors, not panics.
		"name: t\nkind: fleet\nworkload:\n  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: flash-crowd, rate: 10, peak: 3, from: 1s, to: 5s}\n  sizes: {kind: pareto, alpha: 1.5, min: 100ms, max: 10s}\nassert:\n  - all-jobs-done\n  - p99-ceiling: 60s\n",
		"name: t\nkind: fleet\nworkload:\n  sites: 2\n  hosts_per_site: 4\n  jobs: 100\n  arrivals: {kind: constant, rate: -3}\n  sizes: {kind: weibull, mean: 1s}\n",
		"name: t\nkind: fleet\nworkload:\n  sites: 99999\n  hosts_per_site: 99999\n  jobs: 1\n  arrivals: {kind: constant, rate: 1}\n  sizes: {kind: fixed, mean: 1s}\n",
		// Sharp edges: negative durations, inverted windows, unknown keys,
		// type confusion, deep flow nesting, stray tabs, unterminated quotes.
		"name: t\nkind: chaos\nworkload:\n  horizon: -5s\n",
		"name: t\nkind: chaos\nworkload:\n  items: [1, {a: [2, [3]]}]\n",
		"name: t\nkind: chaos\nworkload:\n\titems: 8\n",
		"name: \"unterminated\nkind: chaos\n",
		"name: t\nkind: chaos\nworkload:\n  items: 8\n  capacity: 2\n  horizon: 30s\nfaults:\n  - outage: {a: rwcp-gw, b: rwcp-outer, from: 5s, to: 2s}\n",
		"a: [1, , 2]\n",
		"{\"a\": 1} trailing",
		"- 1\n- 2\n",
		"~\n",
		strings.Repeat("a:\n ", 50),
		// Integers no field means anything with: a negative list element once
		// reached make() inside a simulated process, and extra_sites: 1e8 sent
		// Validate off to build a hundred-million-host testbed.
		"name: t\nkind: table2\nworkload:\n  rounds: 1\n  sizes: [-4]\n",
		"name: t\nkind: grid\nworkload:\n  items: 10\n  capacity: 2\ntopology:\n  extra_sites: 100000000\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatalf("Parse(%q) returned nil spec and nil error", data)
		}
		if s.Name == "" {
			t.Fatalf("Parse(%q) accepted a spec with no name", data)
		}
		// The shape and assertion layers must be panic-free on anything the
		// decoder accepts. (Full Validate builds a testbed — too heavy per
		// fuzz exec — but checkShape/buildAsserts/faultPlan are the layers
		// fuzzing can actually break.)
		_ = s.checkShape()
		_, _ = buildAsserts(s)
		_, _ = s.faultPlan()
		if s.Baseline != nil {
			_ = s.Baseline.checkShape()
			_, _ = buildAsserts(s.Baseline)
			_, _ = s.Baseline.faultPlan()
		}
	})
}
