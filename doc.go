// Package repro is the root of a from-scratch Go reproduction of
// "Performance Evaluation of a Firewall-compliant Globus-based Wide-area
// Cluster System" (Tanaka, Sato, Nakada, Sekiguchi, Hirano — HPDC 2000).
//
// The library lives under internal/ (see DESIGN.md for the inventory), the
// runnable tools under cmd/, and the demonstrations under examples/. The
// top-level tests check the repository as a whole: the binaries and examples
// run, every export has a caller, and the docs name only what exists. The
// paper's evaluation is regenerated by one front end, the scenario runner,
// from Table 2's library file and the paper-scale files under
// scenarios/paper/:
//
//	go run ./cmd/simulator run scenarios/table2-rtt.yaml scenarios/paper/*.yaml
//
// The reports no workload kind renders (Figures 1-5, Table 3, the bandwidth
// sweep, the latency decomposition) are byte goldens under
// internal/bench/testdata/. See README.md for the quickstart and EXPERIMENTS.md for paper-vs-measured
// results.
package repro
