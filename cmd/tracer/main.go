// Command tracer analyzes causal job traces exported by the simulator and
// benchmark harnesses (obs JSONL streams).
//
//	tracer analyze [flags] <trace.jsonl>   whole-run critical-path summary
//	tracer query [flags] <trace.jsonl>     one trace's per-leg decomposition
//	tracer chrome [flags] <trace.jsonl>    re-export as Chrome trace_event JSON
//
// A traced run stamps every span with a trace ID (one per job) and a parent
// span ID; analyze reconstructs the span trees and reports, per job, a
// per-leg decomposition that telescopes bit-exactly to the job's elapsed
// virtual time, plus whole-run per-leg aggregates and the top-K slowest
// jobs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"nxcluster/internal/obs"
	"nxcluster/internal/obs/causal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: tracer <command> [arguments]

commands:
  analyze [flags] <trace.jsonl>   critical-path summary of every traced job
      -top K       show the K slowest jobs (default 10, 0 = all)
      -legs        also print each listed job's full decomposition
  query [flags] <trace.jsonl>     decompose one job's trace
      -trace N     trace ID to decompose (required)
  chrome [flags] <trace.jsonl>    convert to Chrome trace_event JSON
      -o FILE      output file (default stdout); load in ui.perfetto.dev
`

// run is main minus the process exit, so tests can drive it.
// Exit codes: 0 ok, 1 failure, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	switch args[0] {
	case "analyze":
		return runAnalyze(args[1:], stdout, stderr)
	case "query":
		return runQuery(args[1:], stdout, stderr)
	case "chrome":
		return runChrome(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usageText)
		return 0
	}
	fmt.Fprintf(stderr, "tracer: unknown command %q\n\n%s", args[0], usageText)
	return 2
}

// parseExit is the exit code of a failed flag parse: 0 when -h asked for the
// usage, else 2.
func parseExit(err error) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	return 2
}

// load reads one JSONL trace file ("-" = stdin).
func load(path string, stderr io.Writer) ([]obs.Event, bool) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "tracer: %v\n", err)
			return nil, false
		}
		defer f.Close()
		r = f
	}
	events, err := obs.ReadJSONL(r)
	if err != nil {
		fmt.Fprintf(stderr, "tracer: %s: %v\n", path, err)
		return nil, false
	}
	if len(events) == 0 {
		fmt.Fprintf(stderr, "tracer: %s: no events\n", path)
		return nil, false
	}
	return events, true
}

func runAnalyze(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 10, "show the K slowest jobs (0 = all)")
	legs := fs.Bool("legs", false, "print each listed job's full decomposition")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "tracer analyze: want exactly one trace file\n")
		return 2
	}
	events, ok := load(fs.Arg(0), stderr)
	if !ok {
		return 1
	}
	f := causal.Build(events)
	if len(f.Traces) == 0 {
		fmt.Fprintf(stderr, "tracer: %s: stream has no traced spans (run with tracing enabled)\n", fs.Arg(0))
		return 1
	}
	s := causal.Summarize(f)
	fmt.Fprint(stdout, causal.FormatSummary(s, *top))
	if *legs {
		n := len(s.Jobs)
		if *top > 0 && *top < n {
			n = *top
		}
		for _, d := range s.Jobs[:n] {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, causal.FormatDecomposition(d))
		}
	}
	return 0
}

func runQuery(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	fs.SetOutput(stderr)
	traceID := fs.Uint64("trace", 0, "trace ID to decompose")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if fs.NArg() != 1 || *traceID == 0 {
		fmt.Fprintf(stderr, "tracer query: want -trace N and one trace file\n")
		return 2
	}
	events, ok := load(fs.Arg(0), stderr)
	if !ok {
		return 1
	}
	f := causal.Build(events)
	tr := f.Trace(*traceID)
	if tr == nil {
		fmt.Fprintf(stderr, "tracer: no trace %d in %s (%d traces present)\n", *traceID, fs.Arg(0), len(f.Traces))
		return 1
	}
	for _, root := range tr.Roots {
		d, err := causal.Decompose(root)
		if err != nil {
			fmt.Fprintf(stderr, "tracer: %v\n", err)
			continue
		}
		fmt.Fprint(stdout, causal.FormatDecomposition(d))
	}
	if len(tr.Marks) > 0 {
		fmt.Fprintf(stdout, "marks:\n")
		for _, m := range tr.Marks {
			fmt.Fprintf(stdout, "  %12d %s/%s [%s]\n", int64(m.At), m.Cat, m.Name, m.Track)
		}
	}
	if tr.Incomplete > 0 {
		fmt.Fprintf(stdout, "%d incomplete spans (ends never recorded)\n", tr.Incomplete)
	}
	return 0
}

func runChrome(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chrome", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "tracer chrome: want exactly one trace file\n")
		return 2
	}
	events, ok := load(fs.Arg(0), stderr)
	if !ok {
		return 1
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "tracer: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := obs.FromEvents(events).WriteChromeTrace(w); err != nil {
		fmt.Fprintf(stderr, "tracer: %v\n", err)
		return 1
	}
	return 0
}
