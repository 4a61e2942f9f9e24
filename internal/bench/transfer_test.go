package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
)

// smallTransferConfig keeps test sweeps fast while covering the interesting
// corners: window-limited no-loss and congestion-limited lossy points.
func smallTransferConfig() TransferConfig {
	return TransferConfig{
		FileSize:  1 << 20,
		Streams:   []int{1, 8},
		LossRates: []float64{0, 0.02},
	}
}

func transferHash(pts []TransferPoint) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, FormatTransfer(pts))
	return h.Sum64()
}

// TestTransferCurveShape pins the qualitative physics of the sweep — the
// properties that motivated GridFTP's parallel streams.
func TestTransferCurveShape(t *testing.T) {
	pts, err := RunTransfer(TransferConfig{FileSize: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]int]TransferPoint{}
	for _, pt := range pts {
		byKey[[2]int{int(pt.LossRate * 1000), pt.Streams}] = pt
	}
	// A single stream never reaches the raw link bound: its 256 KiB window
	// is below the path's bandwidth-delay product even with zero loss.
	linkBound := float64(TransferWANBandwidth)
	if g := byKey[[2]int{0, 1}].Goodput; g <= 0 || g >= linkBound {
		t.Fatalf("single-stream no-loss goodput %.0f not in (0, %0.f)", g, linkBound)
	}
	// At every loss rate, 8 streams beat 1 stream; at the highest loss the
	// whole curve is strictly monotone in stream count.
	for _, loss := range []int{0, 5, 20} {
		g1, g8 := byKey[[2]int{loss, 1}].Goodput, byKey[[2]int{loss, 8}].Goodput
		if g8 <= g1 {
			t.Errorf("loss %d/1000: 8 streams (%.0f B/s) not above 1 stream (%.0f B/s)", loss, g8, g1)
		}
	}
	prev := 0.0
	for _, streams := range []int{1, 2, 4, 8} {
		g := byKey[[2]int{20, streams}].Goodput
		if g <= prev {
			t.Errorf("2%% loss: goodput not monotone at %d streams (%.0f after %.0f)", streams, g, prev)
		}
		prev = g
	}
	// Loss costs a single stream real throughput.
	if l, n := byKey[[2]int{20, 1}].Goodput, byKey[[2]int{0, 1}].Goodput; l >= n {
		t.Errorf("2%% loss single stream (%.0f) not below no-loss (%.0f)", l, n)
	}
	// Lossy points show flow-model activity; lossless points none.
	if pt := byKey[[2]int{20, 1}]; pt.Drops == 0 || pt.Retransmits < pt.Drops {
		t.Errorf("2%% loss: implausible counters %+v", pt)
	}
	if pt := byKey[[2]int{0, 8}]; pt.Drops != 0 || pt.Retransmits != 0 {
		t.Errorf("no loss: unexpected flow activity %+v", pt)
	}
}

// TestTransferDeterministic: the congestion-modeled sweep is bit-reproducible
// run to run and invariant under host parallelism, like every other
// experiment in the repo.
func TestTransferDeterministic(t *testing.T) {
	first, err := RunTransfer(smallTransferConfig())
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunTransfer(smallTransferConfig())
	if err != nil {
		t.Fatal(err)
	}
	if transferHash(first) != transferHash(second) {
		t.Fatalf("sweep not reproducible:\n%s\nvs\n%s", FormatTransfer(first), FormatTransfer(second))
	}

	cfg := smallTransferConfig()
	cfg.Workers = 1
	serial, err := RunTransfer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if transferHash(first) != transferHash(serial) {
		t.Fatalf("workers change results:\n%s\nvs\n%s", FormatTransfer(first), FormatTransfer(serial))
	}

	prev := runtime.GOMAXPROCS(1)
	limited, err := RunTransfer(smallTransferConfig())
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	if transferHash(first) != transferHash(limited) {
		t.Fatalf("GOMAXPROCS changes results:\n%s\nvs\n%s", FormatTransfer(first), FormatTransfer(limited))
	}
}

// TestVerifierRejectsWhatTheSourceDoesNot: a block equal to its range of the
// source is accepted; a flipped byte or a block past the end is refused, and
// the error names the offset.
func TestVerifierRejectsWhatTheSourceDoesNot(t *testing.T) {
	file := make([]byte, 4096)
	for i := range file {
		file[i] = byte(i * 7)
	}
	v := verifier(file)
	if n, err := v.WriteAt(file[1024:1536], 1024); err != nil || n != 512 {
		t.Fatalf("matching block: %d, %v", n, err)
	}
	flipped := append([]byte(nil), file[1024:1536]...)
	flipped[1234-1024] ^= 0xff
	for _, tc := range []struct {
		p    []byte
		off  int64
		name string
	}{
		{flipped, 1024, "1234"},
		{file[:512], 4000, "4000"},
		{file[:1], -3, "-3"},
	} {
		if _, err := v.WriteAt(tc.p, tc.off); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("WriteAt(%d bytes, %d) = %v, want an error naming %s", len(tc.p), tc.off, err, tc.name)
		}
	}
}
