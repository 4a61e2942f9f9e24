// Command simulator runs declarative scenario files against the simulated
// wide-area testbed; it is the one front end that regenerates the paper's
// evaluation.
//
//	simulator validate <file>...        parse + validate, no execution
//	simulator run [flags] <file>...     execute with invariant enforcement
//	simulator list [dir]                inventory a scenario directory
//
// A scenario file (YAML subset or JSON, see internal/scenario) declares the
// topology, the workload kind (chaos, table2, table4, monitor, gridftp,
// grid, or fleet — the open-loop fleet-scale workload that stamps its own
// sites x hosts tree), a fault schedule, and end-of-run assertions.
// Every run is executed twice and must reproduce bit-identically — the
// implicit determinism invariant every scenario carries.
//
// After each file's status row, run prints the report its kind renders:
// Table 2, Tables 4-6, the monitor's GIS table and dashboard, the GridFTP
// sweep, the fleet summary, or a chaos or grid run's full fingerprint.
// scenarios/paper/ holds the configurations the docs quote:
//
//	simulator run scenarios/table2-rtt.yaml scenarios/paper/*.yaml
//	simulator run -trace knap.jsonl scenarios/paper/monitor.yaml
//	tracer chrome -o knap.json knap.jsonl   # chrome://tracing, Perfetto
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"nxcluster/internal/bench"
	"nxcluster/internal/obs"
	"nxcluster/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: simulator <command> [arguments]

commands:
  validate <file>...      parse and validate scenario files (nothing runs)
  run [flags] <file>...   execute scenarios, enforcing every assertion
      -json FILE          write the suite result JSON (re-baselines SCENARIOS_suite.json)
      -v                  print per-scenario failures as they happen
      -trace FILE         write the replay's event trace as JSONL (one chaos or monitor file)
  list [dir]              list scenarios in a directory (default scenarios/)
`

// run is main minus the process exit, so tests can drive it.
// Exit codes: 0 ok, 1 validation/run failure, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	switch args[0] {
	case "validate":
		return runValidate(args[1:], stdout, stderr)
	case "run":
		return runRun(args[1:], stdout, stderr)
	case "list":
		return runList(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usageText)
		return 0
	}
	fmt.Fprintf(stderr, "simulator: unknown command %q\n\n%s", args[0], usageText)
	return 2
}

func loadSpec(path string) (*scenario.Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadSpecs parses every file (errs[i] is file i's error) and refuses two
// files that declare the same name: results are keyed by name — the
// SCENARIOS_suite.json rows are looked up by it — so the second would leave
// the first ungated.
func loadSpecs(files []string) (specs []*scenario.Spec, errs []error, dup error) {
	specs, errs = make([]*scenario.Spec, len(files)), make([]error, len(files))
	owner := map[string]string{}
	for i, path := range files {
		s, err := loadSpec(path)
		specs[i], errs[i] = s, err
		if err != nil {
			continue
		}
		if prev, ok := owner[s.Name]; ok && dup == nil {
			dup = fmt.Errorf("%s and %s both declare name %q", prev, path, s.Name)
		}
		owner[s.Name] = path
	}
	return specs, errs, dup
}

func runValidate(files []string, stdout, stderr io.Writer) int {
	if len(files) == 0 {
		fmt.Fprintln(stderr, "simulator validate: no scenario files given")
		return 2
	}
	specs, errs, dup := loadSpecs(files)
	if dup != nil {
		fmt.Fprintf(stderr, "simulator validate: %v\n", dup)
		return 2
	}
	bad := 0
	for i, path := range files {
		s, err := specs[i], errs[i]
		if err == nil {
			err = scenario.Validate(s)
		}
		if err != nil {
			bad++
			fmt.Fprintf(stderr, "INVALID %s: %v\n", path, err)
			continue
		}
		fmt.Fprintf(stdout, "ok      %s (%s, kind %s)\n", path, s.Name, s.Kind)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "simulator validate: %d of %d files invalid\n", bad, len(files))
		return 1
	}
	return 0
}

func runRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.String("json", "", "write suite result JSON to this file")
	verbose := fs.Bool("v", false, "print failures as they happen")
	traceOut := fs.String("trace", "", "write the replay run's event trace as JSONL to this file (one chaos or monitor file)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "simulator run: no scenario files given")
		return 2
	}
	specs, errs, dup := loadSpecs(files)
	if dup != nil {
		fmt.Fprintf(stderr, "simulator run: %v\n", dup)
		return 2
	}
	// The replay of the one traced file records; the determinism check then
	// proves its trace is the primary's.
	var rec *obs.Observer
	if *traceOut != "" {
		if err := traceable(files, specs); err != nil {
			fmt.Fprintf(stderr, "simulator run: -trace: %v\n", err)
			return 2
		}
		rec = obs.New()
	}
	// Every file validates before any runs. Every failure names its file; a
	// parse error already does (loadSpec).
	for i, path := range files {
		err := errs[i]
		if err == nil {
			if err = scenario.Validate(specs[i]); err != nil {
				err = fmt.Errorf("%s: %w", path, err)
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "simulator run: %v\n", err)
			return 1
		}
	}
	// The files share nothing, so they run side by side; rows print in
	// argument order once all have run.
	results := make([]*scenario.Result, len(files))
	reports := make([]any, len(files))
	_ = bench.RunParallel(len(files), 0, func(i int) error {
		results[i], reports[i], errs[i] = scenario.RunReport(specs[i], rec)
		return nil // errs[i] is reported below, in order
	})
	suite := &scenario.SuiteResult{}
	for i, path := range files {
		res, err := results[i], errs[i]
		if err != nil {
			fmt.Fprintf(stderr, "simulator run: %s: %v\n", path, err)
			return 1
		}
		suite.Scenarios = append(suite.Scenarios, *res)
		status := "PASS"
		if !res.Passed {
			status = "FAIL"
		}
		fmt.Fprintf(stdout, "%-26s %s  kind=%-7s invariants=%d elapsed=%dms trace=%s\n",
			res.Name, status, res.Kind, res.Invariants, res.ElapsedMS, res.TraceHash)
		if *verbose || !res.Passed {
			for _, f := range res.Failures {
				fmt.Fprintf(stdout, "    FAIL %s\n", f)
			}
		}
		fmt.Fprint(stdout, report(reports[i]))
	}
	sc, inv, fails := suite.Counts()
	fmt.Fprintf(stdout, "scenarios=%d invariants=%d failures=%d\n", sc, inv, fails)
	if *jsonOut != "" {
		data, err := json.MarshalIndent(suite, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "simulator run: writing %s: %v\n", *jsonOut, err)
			return 1
		}
	}
	if rec != nil {
		if err := writeTrace(*traceOut, rec); err != nil {
			fmt.Fprintf(stderr, "simulator run: writing %s: %v\n", *traceOut, err)
			return 1
		}
	}
	if !suite.Passed() {
		return 1
	}
	return 0
}

// traceable refuses -trace unless it names one file whose kind runs with an
// observer attached: chaos or monitor. A file that does not parse is left to
// the validation that follows.
func traceable(files []string, specs []*scenario.Spec) error {
	if len(files) != 1 {
		return fmt.Errorf("takes exactly one scenario file, got %d", len(files))
	}
	if s := specs[0]; s != nil && s.Kind != scenario.KindChaos && s.Kind != scenario.KindMonitor {
		return fmt.Errorf("%s is kind %s; only chaos and monitor runs are traced", files[0], s.Kind)
	}
	return nil
}

// writeTrace writes o's events to path as JSONL.
func writeTrace(path string, o *obs.Observer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// report renders what a file's primary run leaves (scenario.RunReport), each
// table followed by a blank line: Table 2, Tables 4-6, the monitor's GIS table
// and headline dashboard, the GridFTP sweep, the fleet summary; a chaos or
// grid run's full fingerprint as one indented line.
func report(v any) string {
	switch v := v.(type) {
	case []bench.Table2Row:
		return bench.FormatTable2(v) + "\n"
	case *bench.KnapsackReport:
		return bench.FormatTable4(v) + "\n" + bench.FormatTable5(v) + "\n" + bench.FormatTable6(v) + "\n"
	case *bench.MonitorReport:
		return bench.FormatMonitor(v, bench.DefaultMonitorFilter) + "\n"
	case []bench.TransferPoint:
		return bench.FormatTransfer(v) + "\n"
	case *bench.FleetReport:
		return bench.FormatFleet(v) + "\n"
	case interface{ Fingerprint() string }: // chaos, grid
		return "    " + v.Fingerprint() + "\n"
	}
	return ""
}

func runList(args []string, stdout, stderr io.Writer) int {
	dir := "scenarios"
	if len(args) > 1 {
		fmt.Fprintln(stderr, "simulator list: at most one directory")
		return 2
	}
	if len(args) == 1 {
		dir = args[0]
	}
	var files []string
	for _, pat := range []string{"*.yaml", "*.yml", "*.json"} {
		m, _ := filepath.Glob(filepath.Join(dir, pat))
		files = append(files, m...)
	}
	sort.Strings(files)
	if len(files) == 0 {
		fmt.Fprintf(stderr, "simulator list: no scenario files in %s\n", dir)
		return 1
	}
	for _, path := range files {
		s, err := loadSpec(path)
		if err != nil {
			fmt.Fprintf(stdout, "%-28s (unparseable: %v)\n", filepath.Base(path), err)
			continue
		}
		desc := s.Desc
		if desc == "" {
			desc = "-"
		}
		fmt.Fprintf(stdout, "%-28s %-8s %s\n", s.Name, s.Kind, desc)
	}
	return 0
}
