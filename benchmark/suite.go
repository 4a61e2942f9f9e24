package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// suiteMain runs every selected workload reps times, each run in a fresh
// child process of this same binary so that garbage-collector state and peak
// RSS belong to one run, prints every metric with its median, quartiles and
// sample count, and writes the result file. It returns the exit status:
// non-zero when a run failed or reported incorrect output.
func suiteMain(cfg runConfig, spec *benchSpec, reps int, only, out string, varySeeds bool) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	var selected []workloadDef
	for _, d := range workloads() {
		if !spec.hasWorkload(d.name) {
			fatal(fmt.Errorf("workload %q is not declared in BENCHMARK.json", d.name))
		}
		if only == "" || strings.Contains(","+only+",", ","+d.name+",") {
			selected = append(selected, d)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("-workloads %q selects none of the declared workloads", only))
	}
	mode, declared := modeEndToEnd, spec.EndToEnd
	if cfg.trace {
		mode, declared = modePerLayer, spec.PerLayer
	}
	if reps < 1 {
		reps = 1
	}

	file := &resultFile{
		Schema: resultSchema, Mode: mode, Commit: gitCommit(cfg.root),
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.seed, VarySeeds: varySeeds, Repetitions: reps, RunSeconds: cfg.seconds, Quick: cfg.quick,
	}
	for _, d := range selected {
		w := workloadRuns{Name: d.name}
		if d.loopback {
			w.Note = loopbackNote
		}
		file.Workloads = append(file.Workloads, w)
	}

	status := 0
	// Repetitions are the outer loop, so slow drift of the host spreads over
	// every workload and does not land on the last one.
	for rep := 0; rep < reps; rep++ {
		for i, d := range selected {
			seed := cfg.seed
			if varySeeds {
				seed += uint64(rep)
			}
			args := []string{
				"-workload", d.name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0",
			}
			if cfg.trace {
				args[len(args)-1] = "1"
			}
			if cfg.quick {
				args = append(args, "-quick")
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s seed %d\n", rep+1, reps, d.name, seed)
			rec, err := runChild(self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", d.name, err)
				status = 1
				continue
			}
			rec.Seed = seed
			if !rec.Correct {
				status = 1
				for _, p := range rec.Detail.Problems {
					fmt.Fprintf(os.Stderr, "benchmark: %s seed %d INCORRECT: %s\n", d.name, seed, p)
				}
			}
			file.Workloads[i].Runs = append(file.Workloads[i].Runs, *rec)
		}
	}

	printReport(file, selected, declared)
	if out == "" {
		dir := filepath.Join(cfg.root, "benchmark", "out")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		out = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", mode, cfg.seed))
	}
	if err := writeResultFile(out, file); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult file: %s\n", out)
	if cfg.trace {
		fmt.Printf("spans: %s\n", filepath.Join(cfg.root, "benchmark", "out", "spans-<workload>.jsonl"))
	}
	if status != 0 {
		fmt.Println("FAILED: at least one run failed or reported incorrect output")
	}
	return status
}

// runChild runs one workload run in a child process and parses what it
// printed: the detail line and, last, the result line.
func runChild(self string, args []string) (*runRecord, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	var last, detail string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "detail: "); ok {
			detail = rest
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("child %v: last line is not a result: %w", args, err)
	}
	rec := &runRecord{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Values: map[string]float64{}, Detail: &runDetail{}}
	for name, m := range res.Metrics {
		rec.Values[name] = m.Value
	}
	if detail != "" {
		if err := json.Unmarshal([]byte(detail), rec.Detail); err != nil {
			return nil, fmt.Errorf("child %v: bad detail line: %w", args, err)
		}
	}
	return rec, nil
}

// gitCommit names the commit of the checkout, or "unknown" outside a git
// repository (the driver's checkouts are not one).
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if dirty, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(dirty)) > 0 {
		commit += "+dirty"
	}
	return commit
}

// printReport prints, per workload, every declared metric by name with its
// unit, median, quartiles, spread and sample count. Per-layer metrics a
// workload does not exercise read 0 and are left out.
func printReport(f *resultFile, defs []workloadDef, declared []metricSpec) {
	fmt.Printf("\nnxcluster benchmark: %s metrics, commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %d runs of %gs per workload\n",
		f.Mode, f.Commit, f.GoVersion, f.NProc, f.GOMAXPROCS, f.Seed, f.Repetitions, f.RunSeconds)
	for i := range f.Workloads {
		w, d := &f.Workloads[i], defs[i]
		attempted, failed := 0, 0
		for _, r := range w.Runs {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Printf("\n%s: %d runs, %d operations attempted, %d failed", w.Name, len(w.Runs), attempted, failed)
		if attempted > 0 {
			fmt.Printf(" (failed_pct %.4g %%)", 100*float64(failed)/float64(attempted))
		}
		fmt.Println()
		if w.Note != "" {
			fmt.Printf("  note: %s\n", w.Note)
		}
		if len(w.Runs) == 0 {
			continue
		}
		fmt.Printf("  %-30s %-8s %14s %14s %14s %9s %3s\n", "metric", "unit", "median", "q1", "q3", "spread", "n")
		for _, m := range declared {
			vs := w.values(m.Name)
			med := median(vs)
			if f.Mode == modePerLayer && med == 0 {
				continue
			}
			q1, q3 := quartiles(vs)
			label := m.Name
			switch {
			case m.Name == "work_per_s" && d.workAlias != "":
				label += " (" + d.workAlias + ")"
			case m.Name == "op_p50_ms" && d.opAlias != "":
				label += " (" + d.opAlias + ")"
			}
			fmt.Printf("  %-30s %-8s %14.6g %14.6g %14.6g %8.2f%% %3d\n", label, m.Unit, med, q1, q3, 100*spread(vs), len(vs))
		}
		if f.Mode == modeEndToEnd {
			last := w.Runs[len(w.Runs)-1].Detail
			fmt.Printf("  work_per_s counts %s\n  op_p50_ms times %s; last run: %d samples, p%g %.6g ms, peak RSS %.1f MB\n",
				d.work, d.op, last.OpSamples, last.TailLevel, last.TailMS, last.PeakRSSMB)
		}
	}
}
