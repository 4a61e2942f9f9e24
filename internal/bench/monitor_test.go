package bench

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"nxcluster/internal/mds"
	"nxcluster/internal/obs/timeseries"
)

// monitorRun executes a small monitored wide-area run; capacity 2 keeps it
// to a few host-seconds while still exercising WAN links, relays and RMF.
func monitorRun(t *testing.T, onSample func(time.Duration, *timeseries.Store, *mds.Directory)) *MonitorReport {
	t.Helper()
	rep, err := RunMonitor(MonitorConfig{
		KnapsackConfig: KnapsackConfig{Capacity: 2},
		Interval:       time.Second,
	}, onSample)
	if err != nil {
		t.Fatalf("monitored run: %v", err)
	}
	return rep
}

func TestMonitorSeriesAndDirectory(t *testing.T) {
	rep := monitorRun(t, nil)
	if rep.Store.Windows() == 0 {
		t.Fatal("no windows sampled")
	}
	// The WAN leg must have carried traffic and produced a rate series.
	wan := rep.Store.Series("link.rwcp-outer>etl-gw.bytes")
	if wan == nil {
		names := strings.Join(rep.Store.Names(), "\n  ")
		t.Fatalf("WAN bytes series missing; have:\n  %s", names)
	}
	if wan.Total() == 0 {
		t.Fatal("WAN series carried no bytes")
	}
	// Host rows survive in the directory (all refreshed every window).
	hosts, err := rep.Dir.Search(MonitorBase, mds.Eq("objectclass", "host"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) == 0 {
		t.Fatal("no host rows in directory")
	}
	for _, e := range hosts {
		if got := e.First("status"); got != "up" {
			t.Fatalf("%s status = %q, want up (fault-free run)", e.DN, got)
		}
		if e.First("lastupdate") == "" {
			t.Fatalf("%s has no lastupdate stamp", e.DN)
		}
	}
	// Link rows too, with the WAN leg's capacity attribute.
	e, err := rep.Dir.Get("hn=link:rwcp-outer>etl-gw, " + MonitorBase)
	if err != nil {
		t.Fatalf("WAN link row missing: %v", err)
	}
	if got := e.First("linkmbps"); got != "1.5" {
		t.Fatalf("WAN linkMbps = %q, want 1.5 (IMnet)", got)
	}
}

func TestMonitorMidRunMDSConsistency(t *testing.T) {
	// At every window the cumulative bytes attribute published for the WAN
	// link must equal the sum of the rate series so far: the directory's
	// live view and the final time-series describe the same run.
	const wanSeries = "link.rwcp-outer>etl-gw.bytes"
	checked := 0
	rep := monitorRun(t, func(at time.Duration, st *timeseries.Store, dir *mds.Directory) {
		s := st.Series(wanSeries)
		if s == nil {
			return // link not yet active
		}
		e, err := dir.Get("hn=link:rwcp-outer>etl-gw, " + MonitorBase)
		if err != nil {
			t.Fatalf("window at %v: link row missing: %v", at, err)
		}
		attr, err := strconv.ParseInt(e.First("bytes"), 10, 64)
		if err != nil {
			t.Fatalf("window at %v: bad bytes attr %q", at, e.First("bytes"))
		}
		if attr != s.Total() {
			t.Fatalf("window at %v: directory bytes %d != series total %d", at, attr, s.Total())
		}
		if got := e.First("lastupdate"); got != strconv.FormatInt(int64(at), 10) {
			t.Fatalf("window at %v: lastupdate %q not refreshed", at, got)
		}
		checked++
	})
	if checked == 0 {
		t.Fatal("consistency hook never saw the WAN series")
	}
	// And the final directory row matches the completed store.
	e, err := rep.Dir.Get("hn=link:rwcp-outer>etl-gw, " + MonitorBase)
	if err != nil {
		t.Fatal(err)
	}
	attr, _ := strconv.ParseInt(e.First("bytes"), 10, 64)
	if attr != rep.Store.Series(wanSeries).Total() {
		t.Fatalf("final directory bytes %d != series total %d",
			attr, rep.Store.Series(wanSeries).Total())
	}
}

// monitorHash runs the monitored sweep and hashes the two user-visible
// serializations: the JSONL time-series and the ASCII dashboard.
func monitorHash(t *testing.T) (uint64, string) {
	t.Helper()
	rep := monitorRun(t, nil)
	return rep.Store.Hash(), FormatMonitor(rep, DefaultMonitorFilter)
}

// TestMonitorHostConfigInvariant mirrors TestGoldenOutputsHostConfigInvariant
// for the monitoring plane: the emitted time-series and dashboard are
// byte-identical across GOMAXPROCS settings.
func TestMonitorHostConfigInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run monitored sweep")
	}
	prev := runtime.GOMAXPROCS(1)
	h1, d1 := monitorHash(t)
	runtime.GOMAXPROCS(8)
	h8, d8 := monitorHash(t)
	runtime.GOMAXPROCS(prev)
	if h1 != h8 {
		t.Errorf("time-series hash diverged: GOMAXPROCS=1 -> %#x, GOMAXPROCS=8 -> %#x", h1, h8)
	}
	if d1 != d8 {
		t.Error("dashboard output diverged across GOMAXPROCS")
	}
}

// TestMonitorDoesNotPerturbResults pins the zero-perturbation contract: the
// monitored run's virtual execution time equals the unmonitored wide-area
// run's, because sampling and publishing are pure reads in kernel context.
func TestMonitorDoesNotPerturbResults(t *testing.T) {
	rep := monitorRun(t, nil)
	plain, err := RunKnapsack(KnapsackConfig{Capacity: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wide time.Duration
	for _, row := range plain.Rows {
		if row.System == "Wide-area Cluster (use Nexus Proxy)" {
			wide = row.Elapsed
		}
	}
	if rep.Elapsed != wide {
		t.Fatalf("monitored exec %v != unmonitored %v", rep.Elapsed, wide)
	}
}

func TestDefaultMonitorFilter(t *testing.T) {
	cases := map[string]bool{
		"cluster.hosts_up":              true,
		"relay.rwcp-outer.bytes":        true,
		"rmf.requeues":                  true,
		"hbm.transitions":               true,
		"link.rwcp-outer>etl-gw.bytes":  true,
		"link.rwcp-lan>rwcp-gw.busy_ns": true,
		"link.compas0>compas-sw.bytes":  false,
		"mpi.rank0.sends":               false,
		"link.rwcp-sun>rwcp-lan.queue":  false,
		"link.etl-gw>etl-lan.bytes":     true,
	}
	for name, want := range cases {
		if got := DefaultMonitorFilter(name); got != want {
			t.Errorf("filter(%q) = %v, want %v", name, got, want)
		}
	}
}
