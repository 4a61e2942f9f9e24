package bench

import (
	"strings"
	"testing"

	"nxcluster/internal/cluster"
	"nxcluster/internal/knapsack"
	"nxcluster/internal/mpi"
)

// TestKnapsackReportShape runs the full Table 4/5/6 sweep on a reduced
// problem and checks the paper's qualitative results.
func TestKnapsackReportShape(t *testing.T) {
	r, err := RunKnapsack(KnapsackConfig{Capacity: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	// Every parallel system beats the sequential baseline.
	for _, row := range r.Rows {
		if row.Speedup <= 1.0 {
			t.Errorf("%s: speedup %.2f <= 1", row.System, row.Speedup)
		}
	}
	// The wide-area cluster (20 procs) beats the local-area cluster (12).
	var local, wide float64
	for _, row := range r.Rows {
		switch row.System {
		case "Local-area Cluster":
			local = row.Speedup
		case "Wide-area Cluster (use Nexus Proxy)":
			wide = row.Speedup
		}
	}
	if wide <= local {
		t.Errorf("wide-area speedup %.2f <= local-area %.2f", wide, local)
	}
	// The paper's headline: proxy overhead on the wide-area run is small
	// (~3.5% there; allow up to 15% on the reduced problem).
	oh := r.ProxyOverhead()
	if oh > 0.15 {
		t.Errorf("proxy overhead = %.1f%%, want small", oh*100)
	}
	if oh < -0.15 {
		t.Errorf("proxy overhead = %.1f%% (negative beyond noise)", oh*100)
	}
	// Tables 5/6 inputs exist and balance: all slaves stole work.
	if r.Local == nil || r.Wide == nil {
		t.Fatal("missing instrumented local/wide results")
	}
	for _, st := range r.Wide.Stats[1:] {
		if st.Steals == 0 {
			t.Errorf("wide-area slave %d (%s) never stole", st.Rank, st.Name)
		}
	}
	// Load balance: within each wide-area cluster group, max/min traversed
	// stay within an order of magnitude (the paper's Table 6 shows tight
	// balance from fine-grained stealing).
	for _, g := range groupStats(r.Wide, func(st knapsack.RankStats) int64 { return st.Traversed }) {
		if g.Min > 0 && float64(g.Max)/float64(g.Min) > 10 {
			t.Errorf("%s traversed imbalance max/min = %d/%d", g.Cluster, g.Max, g.Min)
		}
	}

	out4, out5, out6 := FormatTable4(r), FormatTable5(r), FormatTable6(r)
	for _, s := range []string{"Table 4", "COMPaS", "ETL-O2K", "Local-area", "Wide-area", "speedup"} {
		if !strings.Contains(out4, s) {
			t.Errorf("Table4 output missing %q", s)
		}
	}
	for _, s := range []string{"Table 5", "Master", "COMPaS"} {
		if !strings.Contains(out5, s) {
			t.Errorf("Table5 output missing %q", s)
		}
	}
	for _, s := range []string{"Table 6", "Master", "RWCP-Sun"} {
		if !strings.Contains(out6, s) {
			t.Errorf("Table6 output missing %q", s)
		}
	}
	t.Logf("\n%s\n%s\n%s", out4, out5, out6)
}

// TestSecuredProxyDoesNotChangeResults: running the wide-area system with
// authenticated relay control channels costs only connection setup, so the
// computation's outputs are identical and the execution time very close.
func TestSecuredProxyDoesNotChangeResults(t *testing.T) {
	open := KnapsackConfig{Capacity: 3}
	secured := KnapsackConfig{Capacity: 3}
	secured.Options.Secret = "site-secret"
	in := knapsack.Normalized(50, 3)
	runWide := func(cfg KnapsackConfig) *knapsack.Result {
		res, err := runOn(cfg, in, func(tb *cluster.Testbed) []mpi.Placement {
			return tb.Placements(cluster.SystemWide, true)
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runWide(open), runWide(secured)
	if a.Best != b.Best || a.TotalTraversed != b.TotalTraversed {
		t.Fatalf("secured run diverged: best %d/%d nodes %d/%d",
			a.Best, b.Best, a.TotalTraversed, b.TotalTraversed)
	}
	ratio := float64(b.Elapsed) / float64(a.Elapsed)
	if ratio > 1.10 {
		t.Fatalf("authentication cost %.1f%% execution time", (ratio-1)*100)
	}
}
