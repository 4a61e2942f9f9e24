package main

import (
	"fmt"
	"os"
)

// Verdicts of one workload x metric comparison.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "WORSE"
	verdictUnresolved = "unresolved"
)

// comparison is one workload x end-to-end metric cell of `compare`.
type comparison struct {
	workload string
	metric   metricSpec
	a, b     []float64
	// ratio is B's median over A's, the base.
	ratio   float64
	verdict string
}

// compareCell judges B against A, the base, by the metric's bound. The
// spread between a set's own runs (inter-quartile distance over median) is
// the resolution of the comparison: where either set's spread exceeds the
// bound, a shift of the size of the bound cannot be told from noise and the
// cell is unresolved, not unchanged. setup_s is compared on its medians
// alone, as the driver does.
func compareCell(workload string, m metricSpec, a, b []float64) comparison {
	c := comparison{workload: workload, metric: m, a: a, b: b, verdict: verdictWithin}
	ma, mb := median(a), median(b)
	c.ratio = mb / ma
	worse := (mb - ma) / ma
	if m.Better == "higher" {
		worse = (ma - mb) / ma
	}
	switch {
	case worse > m.Bound:
		c.verdict = verdictWorse
	case m.Name != "setup_s" && (spread(a) > m.Bound || spread(b) > m.Bound):
		c.verdict = verdictUnresolved
	}
	return c
}

// compareFiles compares every workload x end-to-end metric present in both.
func compareFiles(spec *benchSpec, a, b *resultFile) ([]comparison, error) {
	if a.Mode != modeEndToEnd || b.Mode != modeEndToEnd {
		return nil, fmt.Errorf("compare needs two %s result files, got %s and %s", modeEndToEnd, a.Mode, b.Mode)
	}
	var out []comparison
	for _, w := range spec.Workloads {
		wa, wb := a.workload(w.Name), b.workload(w.Name)
		if wa == nil || wb == nil || len(wa.Runs) == 0 || len(wb.Runs) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			out = append(out, compareCell(w.Name, m, wa.values(m.Name), wb.values(m.Name)))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("the two files share no workload with runs")
	}
	return out, nil
}

// compareMain implements `compare A.json B.json`; A is the base. It exits
// non-zero when any cell is worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare BASE.json OTHER.json")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	a, err := readResultFile(args[0], spec)
	if err != nil {
		fatal(err)
	}
	b, err := readResultFile(args[1], spec)
	if err != nil {
		fatal(err)
	}
	cells, err := compareFiles(spec, a, b)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("base  A: %s  commit %s seed %d, %d runs\nother B: %s  commit %s seed %d, %d runs\n",
		args[0], a.Commit, a.Seed, a.Repetitions, args[1], b.Commit, b.Seed, b.Repetitions)
	fmt.Printf("\n%-15s %-11s %-6s %-6s %34s %34s %9s %7s  %s\n",
		"workload", "metric", "unit", "better", "A median [q1, q3]", "B median [q1, q3]", "B/A", "bound", "verdict")
	worse, unresolved := 0, 0
	for _, c := range cells {
		qa1, qa3 := quartiles(c.a)
		qb1, qb3 := quartiles(c.b)
		fmt.Printf("%-15s %-11s %-6s %-6s %34s %34s %9.4f %6.0f%%  %s\n",
			c.workload, c.metric.Name, c.metric.Unit, c.metric.Better,
			fmt.Sprintf("%.5g [%.5g, %.5g]", median(c.a), qa1, qa3),
			fmt.Sprintf("%.5g [%.5g, %.5g]", median(c.b), qb1, qb3),
			c.ratio, 100*c.metric.Bound, c.verdict)
		switch c.verdict {
		case verdictWorse:
			worse++
		case verdictUnresolved:
			unresolved++
		}
	}
	fmt.Printf("\n%d cells: %d worse, %d unresolved (a set's own inter-quartile spread exceeds the bound), %d within bound; ratios are B over A\n",
		len(cells), worse, unresolved, len(cells)-worse-unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}
