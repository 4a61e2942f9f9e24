package bench

import (
	"strings"
	"testing"
	"time"

	"nxcluster/internal/cluster"
)

func TestTable2ReproducesPaperShape(t *testing.T) {
	rows, err := RunTable2(Table2Config{Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	lanDirect, lanIndirect, wanDirect, wanIndirect := rows[0], rows[1], rows[2], rows[3]

	// Paper: direct LAN latency 0.41 ms.
	if lanDirect.Latency < 300*time.Microsecond || lanDirect.Latency > 700*time.Microsecond {
		t.Errorf("LAN direct latency = %v, want ~0.4ms", lanDirect.Latency)
	}
	// Paper: indirect LAN latency 25 ms — 60x direct.
	ratio := float64(lanIndirect.Latency) / float64(lanDirect.Latency)
	if ratio < 25 || ratio > 120 {
		t.Errorf("LAN indirect/direct latency ratio = %.1f (%v vs %v), want order 60x",
			ratio, lanIndirect.Latency, lanDirect.Latency)
	}
	// Paper: direct WAN latency 3.9 ms; indirect ~6x larger.
	if wanDirect.Latency < 3*time.Millisecond || wanDirect.Latency > 6*time.Millisecond {
		t.Errorf("WAN direct latency = %v, want ~3.9ms", wanDirect.Latency)
	}
	wratio := float64(wanIndirect.Latency) / float64(wanDirect.Latency)
	if wratio < 2.5 || wratio > 12 {
		t.Errorf("WAN indirect/direct latency ratio = %.1f (%v vs %v), want several x",
			wratio, wanIndirect.Latency, wanDirect.Latency)
	}
	// Proxy placement: the COMPaS round trip crosses relays on both ends, the
	// ETL one on one end only, which is why the paper's two indirect rows sit
	// close together although their direct baselines differ by 10x.
	if lanIndirect.Latency <= wanIndirect.Latency {
		t.Errorf("both-sides-proxied latency %v <= one-side-proxied %v", lanIndirect.Latency, wanIndirect.Latency)
	}

	// Paper: direct LAN 1MB bandwidth 6.32 MB/s.
	if bw := lanDirect.Bandwidth[1<<20]; bw < 4e6 || bw > 8e6 {
		t.Errorf("LAN direct 1MB bw = %.0f B/s, want ~6.3MB/s", bw)
	}
	// Paper: indirect small-message bandwidth an order of magnitude down.
	smallRatio := lanDirect.Bandwidth[4096] / lanIndirect.Bandwidth[4096]
	if smallRatio < 10 {
		t.Errorf("LAN 4KB direct/indirect bw ratio = %.1f, want >= 10", smallRatio)
	}
	// Paper: on the WAN the 1MB proxy overhead is negligible (both ~IMnet).
	wanRatio := wanDirect.Bandwidth[1<<20] / wanIndirect.Bandwidth[1<<20]
	if wanRatio > 1.35 {
		t.Errorf("WAN 1MB direct/indirect bw ratio = %.2f, want ~1 (negligible overhead)", wanRatio)
	}
	// And the indirect LAN large-message bandwidth is relay-pipeline bound,
	// far below direct.
	if lanIndirect.Bandwidth[1<<20] >= lanDirect.Bandwidth[1<<20]/4 {
		t.Errorf("LAN indirect 1MB bw = %.0f, want well below direct %.0f",
			lanIndirect.Bandwidth[1<<20], lanDirect.Bandwidth[1<<20])
	}

	out := FormatTable2(rows)
	for _, want := range []string{"Table 2", "direct", "indirect", "RWCP-Sun <-> COMPaS", "RWCP-Sun <-> ETL-Sun"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable2 missing %q:\n%s", want, out)
		}
	}
	t.Logf("\n%s", out)
}

// TestRelayBufferSetsProxiedBandwidth: the relay pays its processing cost per
// buffer, so the buffer size sets the proxied pipeline's ceiling — the
// mechanism behind the paper's small-message cliff.
func TestRelayBufferSetsProxiedBandwidth(t *testing.T) {
	bw := map[int]float64{}
	for _, buf := range []int{1 << 10, 4 << 10} {
		rows, err := RunTable2(Table2Config{Rounds: 2, Options: cluster.Options{RelayBufBytes: buf}})
		if err != nil {
			t.Fatal(err)
		}
		bw[buf] = rows[1].Bandwidth[1<<20]
	}
	if bw[4<<10] <= bw[1<<10] {
		t.Errorf("proxied LAN 1 MB bandwidth %.0f B/s with 4 KiB buffers, %.0f with 1 KiB: want higher", bw[4<<10], bw[1<<10])
	}
}
