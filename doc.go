// Package repro is the root of a from-scratch Go reproduction of
// "Performance Evaluation of a Firewall-compliant Globus-based Wide-area
// Cluster System" (Tanaka, Sato, Nakada, Sekiguchi, Hirano — HPDC 2000).
//
// The library lives under internal/ (see DESIGN.md for the inventory), the
// runnable tools under cmd/, and the demonstrations under examples/. The
// top-level tests check the repository as a whole: the binaries and examples
// run, every export has a caller, and the docs name only what exists. The
// paper's evaluation is regenerated by
//
//	go run ./cmd/experiments
//
// See README.md for the quickstart and EXPERIMENTS.md for paper-vs-measured
// results.
package repro
