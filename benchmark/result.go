package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// resultSchema is the version of the result file layout below.
const resultSchema = 1

// Modes of a result file: which of BENCHMARK.json's metric lists its runs
// carry.
const (
	modeEndToEnd = "end_to_end"
	modePerLayer = "per_layer"
)

// loopbackNote is attached to every workload that talks over sockets.
const loopbackNote = "loopback, not a real link"

// resultFile is what one set of runs writes: where and how it ran, and every
// run's values. `compare` reads two of them.
type resultFile struct {
	Schema      int            `json:"schema"`
	Mode        string         `json:"mode"`
	Commit      string         `json:"commit"`
	GoVersion   string         `json:"go_version"`
	NProc       int            `json:"nproc"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Seed        uint64         `json:"seed"`
	VarySeeds   bool           `json:"vary_seeds,omitempty"`
	Repetitions int            `json:"repetitions"`
	RunSeconds  float64        `json:"run_seconds"`
	Quick       bool           `json:"quick,omitempty"`
	Workloads   []workloadRuns `json:"workloads"`
}

// workloadRuns holds one workload's runs in the order they were made.
type workloadRuns struct {
	Name string      `json:"name"`
	Note string      `json:"note,omitempty"`
	Runs []runRecord `json:"runs"`
}

// runRecord is one child process's result.
type runRecord struct {
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Values    map[string]float64 `json:"values"`
	Detail    *runDetail         `json:"detail,omitempty"`
}

// validate checks a result file against the schema version and against
// BENCHMARK.json: every workload and metric in it must be a declared one, so
// a file written before a rename cannot be compared with one written after.
func (f *resultFile) validate(spec *benchSpec) error {
	if f.Schema != resultSchema {
		return fmt.Errorf("result file has schema %d, this benchmark reads schema %d", f.Schema, resultSchema)
	}
	var declared []metricSpec
	switch f.Mode {
	case modeEndToEnd:
		declared = spec.EndToEnd
	case modePerLayer:
		declared = spec.PerLayer
	default:
		return fmt.Errorf("result file has mode %q, want %s or %s", f.Mode, modeEndToEnd, modePerLayer)
	}
	known := map[string]bool{}
	for _, m := range declared {
		known[m.Name] = true
	}
	for _, w := range f.Workloads {
		if !validName(w.Name) || !spec.hasWorkload(w.Name) {
			return fmt.Errorf("result file names workload %q, which BENCHMARK.json does not declare", w.Name)
		}
		for i, r := range w.Runs {
			for name := range r.Values {
				if !validName(name) || !known[name] {
					return fmt.Errorf("result file, workload %s run %d: metric %q is not a declared %s metric", w.Name, i, name, f.Mode)
				}
			}
			for _, m := range declared {
				if _, ok := r.Values[m.Name]; !ok {
					return fmt.Errorf("result file, workload %s run %d: declared metric %q is missing", w.Name, i, m.Name)
				}
			}
		}
	}
	return nil
}

// values returns the metric's value in each run of the workload.
func (w *workloadRuns) values(metric string) []float64 {
	out := make([]float64, 0, len(w.Runs))
	for _, r := range w.Runs {
		out = append(out, r.Values[metric])
	}
	return out
}

// workload returns the named workload's runs, or nil.
func (f *resultFile) workload(name string) *workloadRuns {
	for i := range f.Workloads {
		if f.Workloads[i].Name == name {
			return &f.Workloads[i]
		}
	}
	return nil
}

func writeResultFile(path string, f *resultFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string, spec *benchSpec) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := f.validate(spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
