// Command benchmark is the repository's one benchmark: seven workloads over
// the whole stack, five end-to-end metrics on each, and a per-layer ledger
// measured from outside through the packages' public functions. README.md in
// this directory describes the workloads, the metrics and how to run,
// trace and compare.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload  = flag.String("workload", "", "run this one workload in this process and print its result line (the driver's mode)")
		seed      = flag.Uint64("seed", 1, "seed the workload's inputs are made from (2 is held out for later claims)")
		seconds   = flag.Float64("seconds", 0, "seconds one run measures for (default: run_seconds of BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1 records spans, runs the layer probes and reports the per-layer metrics")
		quick     = flag.Bool("quick", false, "shrink every workload to about a fiftieth (smoke test)")
		reps      = flag.Int("reps", 5, "suite mode: runs per workload")
		only      = flag.String("workloads", "", "suite mode: comma-separated subset of workloads")
		out       = flag.String("out", "", "suite mode: write the result file here (default benchmark/out/<mode>-seed<seed>.json)")
		varySeeds = flag.Bool("vary-seeds", false, "suite mode: run i uses seed+i, as the driver's ten-seed check does")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1, got %d", *trace))
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, root: root}
	if *workload != "" {
		def, _ := findWorkload(*workload)
		res, det, err := runOne(cfg, spec)
		if err != nil {
			fatal(err)
		}
		if err := printRun(cfg, def, res, det); err != nil {
			fatal(err)
		}
		return
	}
	os.Exit(suiteMain(cfg, spec, *reps, *only, *out, *varySeeds))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
