package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
)

// metricSpec is one metric declared in BENCHMARK.json. Per-layer metrics
// have no bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is what the benchmark reads of BENCHMARK.json, the one place
// metric and workload names are fixed: everything the benchmark prints or
// writes is checked against it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric or a workload.
func validName(s string) bool { return nameRE.MatchString(s) }

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = up
	}
}

// loadSpec reads and checks BENCHMARK.json under root.
func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) error {
		if !validName(name) {
			return fmt.Errorf("BENCHMARK.json: %s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: name %q is used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := check("workload", w.Name); err != nil {
			return nil, err
		}
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if err := check("metric", m.Name); err != nil {
			return nil, err
		}
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("BENCHMARK.json: metric %q: better is %q, want lower or higher", m.Name, m.Better)
		}
	}
	return &s, nil
}

// hasWorkload reports whether BENCHMARK.json declares the workload.
func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
