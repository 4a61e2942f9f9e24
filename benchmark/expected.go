package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// expected holds the seed-1 values the simulated workloads must reproduce
// bit for bit: a change meant only to speed the simulator up leaves every
// one of them as it is. They are checked on seed 1 at full scale only; on any
// other seed the workloads fall back to their invariant checks.
type expected struct {
	// Table4Overhead is KnapsackReport.ProxyOverhead at capacity 5, printed
	// with strconv's shortest round-trip form.
	Table4Overhead string `json:"table4_proxy_overhead"`
	// Table4Steals is the master's handled steal count of the wide-area run.
	Table4Steals int64 `json:"table4_wide_steals"`
	// FleetFingerprint and FleetEvents pin the fleet-10k run.
	FleetFingerprint string `json:"fleet_fingerprint"`
	FleetEvents      uint64 `json:"fleet_events"`
	// DataplaneDigest is an FNV-64a hash over every bandwidth and goodput
	// figure of the dataplane-sim pass.
	DataplaneDigest string `json:"dataplane_digest"`
}

// loadExpected reads expected.json when cfg is the configuration it
// describes, seed 1 at full scale, and returns nil otherwise.
func loadExpected(cfg runConfig) (*expected, error) {
	if !pinned(cfg) {
		return nil, nil
	}
	data, err := os.ReadFile(filepath.Join(cfg.root, "benchmark", "expected.json"))
	if err != nil {
		return nil, err
	}
	var e expected
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("benchmark/expected.json: %w", err)
	}
	return &e, nil
}

// pinned reports whether cfg is the configuration the committed seed-1
// values describe.
func pinned(cfg runConfig) bool { return cfg.seed == 1 && !cfg.quick }
