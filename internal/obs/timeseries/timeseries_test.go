package timeseries

import (
	"strings"
	"testing"
	"time"

	"nxcluster/internal/obs"
	"nxcluster/internal/sim"
)

// workload drives a kernel with a process that bumps a counter and a gauge on
// a fixed virtual-time schedule, so every test sees the same series.
func workload(t *testing.T, interval time.Duration, keepAlive bool) (*Store, *sim.Kernel) {
	t.Helper()
	k := sim.New()
	var m obs.Metrics
	c := m.Counter("work.bytes")
	g := m.Gauge("work.queue")
	k.Spawn("worker", func(env *sim.Proc) {
		for i := 1; i <= 10; i++ {
			env.Sleep(500 * time.Millisecond)
			c.Add(int64(100 * i))
			g.Set(int64(i % 4))
		}
	})
	s := NewSampler(k, interval, &m)
	s.KeepAlive = keepAlive
	s.Start()
	if keepAlive {
		k.RunUntil(8 * time.Second)
	} else {
		k.Run()
	}
	return s.Store(), k
}

func TestSamplerWindowsAndRates(t *testing.T) {
	st, _ := workload(t, time.Second, false)
	// Worker runs 5s; sampler ticks at 1s..5s then sees Live()==0 on the
	// next tick at 6s, sampling the tail window first.
	if got := st.Windows(); got != 6 {
		t.Fatalf("windows = %d, want 6", got)
	}
	bytes := st.Series("work.bytes")
	if bytes == nil || bytes.Kind != KindRate {
		t.Fatalf("work.bytes missing or wrong kind: %+v", bytes)
	}
	// The sampler's timer was scheduled before the worker ever slept, so at
	// shared instants (1s, 2s, ...) the tick fires first: window 1 sees only
	// the 0.5s bump (100), window 2 the 1.0s+1.5s bumps (200+300), and the
	// 5.0s bump (1000) lands in the tail window after the worker exits.
	want := []int64{100, 500, 900, 1300, 1700, 1000}
	got := bytes.Values(st.Windows())
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %d = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	if total := bytes.Total(); total != 5500 {
		t.Fatalf("total = %d, want 5500", total)
	}
	q := st.Series("work.queue")
	if q == nil || q.Kind != KindGauge {
		t.Fatalf("work.queue missing or wrong kind: %+v", q)
	}
	// Window-end levels: i%4 after i=1,3,5,7,9 (tick precedes the same-instant
	// bump), then the tail window sees i=10 → 2.
	wantQ := []int64{1, 3, 1, 3, 1, 2}
	gotQ := q.Values(st.Windows())
	for i := range wantQ {
		if gotQ[i] != wantQ[i] {
			t.Fatalf("queue window %d = %d, want %d (%v)", i, gotQ[i], wantQ[i], gotQ)
		}
	}
}

func TestSamplerKeepAliveRunsToHorizon(t *testing.T) {
	st, k := workload(t, time.Second, true)
	if got := st.Windows(); got != 8 {
		t.Fatalf("windows = %d, want 8 (horizon-driven)", got)
	}
	if k.Now() != 8*time.Second {
		t.Fatalf("now = %v, want 8s", k.Now())
	}
}

func TestSamplerStopsKernel(t *testing.T) {
	// Without the Live()==0 self-stop, Run would never return; reaching
	// here at all is the property, but also check time didn't run away.
	_, k := workload(t, time.Second, false)
	if k.Now() > 7*time.Second {
		t.Fatalf("kernel ran to %v; sampler failed to stop", k.Now())
	}
}

func TestMidRunSeriesPadsLeadingZeros(t *testing.T) {
	k := sim.New()
	var m obs.Metrics
	k.Spawn("late", func(env *sim.Proc) {
		env.Sleep(3500 * time.Millisecond)
		m.Counter("late.bytes").Add(42)
		env.Sleep(time.Second)
	})
	s := NewSampler(k, time.Second, &m)
	s.Start()
	k.Run()
	st := s.Store()
	la := st.Series("late.bytes")
	if la == nil {
		t.Fatal("late.bytes missing")
	}
	if la.Start != 3 {
		t.Fatalf("start = %d, want 3", la.Start)
	}
	vals := la.Values(st.Windows())
	if len(vals) != st.Windows() {
		t.Fatalf("padded len = %d, want %d", len(vals), st.Windows())
	}
	for i := 0; i < 3; i++ {
		if vals[i] != 0 {
			t.Fatalf("pad window %d = %d, want 0", i, vals[i])
		}
	}
	if vals[3] != 42 {
		t.Fatalf("window 3 = %d, want 42", vals[3])
	}
}

func TestProbesAndHooks(t *testing.T) {
	k := sim.New()
	var m obs.Metrics
	depth := 0
	k.Spawn("p", func(env *sim.Proc) {
		for i := 0; i < 4; i++ {
			env.Sleep(time.Second)
			depth = i + 1
		}
	})
	s := NewSampler(k, time.Second, &m)
	s.Probe("probe.depth", KindGauge, func() int64 { return int64(depth) })
	var ticks []time.Duration
	s.OnSample(func(at time.Duration) { ticks = append(ticks, at) })
	s.Start()
	k.Run()
	p := s.Store().Series("probe.depth")
	if p == nil {
		t.Fatal("probe series missing")
	}
	// The tick at each shared instant precedes the worker's wakeup, so the
	// probe lags one step and the tail window catches the final depth.
	got := p.Values(s.Store().Windows())
	want := []int64{0, 1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("probe window %d = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	if len(ticks) != s.Store().Windows() {
		t.Fatalf("hooks fired %d times, want %d", len(ticks), s.Store().Windows())
	}
	if ticks[0] != time.Second {
		t.Fatalf("first hook at %v, want 1s", ticks[0])
	}
}

func TestDashboardGolden(t *testing.T) {
	st, _ := workload(t, time.Second, false)
	got := st.FormatDashboard(DashboardOptions{Width: 12})
	want := strings.Join([]string{
		"monitor: 6 windows x 1s, 2 series",
		`scale: ' ' absent, '.' zero, low ":-=+*#%@" high (per-series max)`,
		"",
		"work.bytes |:=+#@*      | peak 1700/win total 5500",
		"work.queue |=@=@=*      | peak 3 last 2",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("dashboard mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestDashboardFilter(t *testing.T) {
	st, _ := workload(t, time.Second, false)
	got := st.FormatDashboard(DashboardOptions{
		Width:  12,
		Filter: func(name string) bool { return strings.HasSuffix(name, ".queue") },
	})
	if strings.Contains(got, "work.bytes") {
		t.Fatalf("filter leaked series:\n%s", got)
	}
	if !strings.Contains(got, "work.queue") {
		t.Fatalf("filter dropped wanted series:\n%s", got)
	}
}

func TestJSONLGoldenAndHash(t *testing.T) {
	st, _ := workload(t, time.Second, false)
	var b strings.Builder
	if err := st.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	want := `{"name":"work.bytes","kind":"rate","interval_ns":1000000000,"start":0,"samples":[100,500,900,1300,1700,1000]}
{"name":"work.queue","kind":"gauge","interval_ns":1000000000,"start":0,"samples":[1,3,1,3,1,2]}
`
	if b.String() != want {
		t.Fatalf("jsonl mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
	// Hash is over these bytes; a second identical run must agree.
	st2, _ := workload(t, time.Second, false)
	if st.Hash() != st2.Hash() {
		t.Fatalf("hash not reproducible: %x vs %x", st.Hash(), st2.Hash())
	}
}

func TestSparklineMaxPooling(t *testing.T) {
	// A single spike must survive pooling into fewer cells.
	vals := make([]int64, 100)
	vals[57] = 9
	line := sparkline(vals, 0, 10, 9)
	if !strings.Contains(line, "@") {
		t.Fatalf("spike lost in pooling: %q", line)
	}
	if len(line) != 10 {
		t.Fatalf("width = %d, want 10", len(line))
	}
	// Width wider than data clamps to data length.
	if got := sparkline(vals[:5], 0, 10, 9); len(got) != 5 {
		t.Fatalf("clamped width = %d, want 5", len(got))
	}
}

func TestSnapshotOrderStable(t *testing.T) {
	var m obs.Metrics
	m.Counter("b").Add(1)
	m.Counter("a").Add(2)
	m.Gauge("z").Set(3)
	rows := m.Snapshot(nil)
	wantNames := []string{"a", "b", "z"}
	if len(rows) != len(wantNames) {
		t.Fatalf("rows = %d, want %d", len(rows), len(wantNames))
	}
	for i, n := range wantNames {
		if rows[i].Name != n {
			t.Fatalf("row %d = %q, want %q", i, rows[i].Name, n)
		}
	}
	if rows[0].Value != 2 || rows[1].Kind != obs.KindCounter || rows[2].Kind != obs.KindGauge {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	// Reuse path appends to buf[:0] without reallocating when capacity fits.
	rows2 := m.Snapshot(rows[:0])
	if &rows2[0] != &rows[0] {
		t.Fatal("snapshot reallocated despite sufficient capacity")
	}
}
