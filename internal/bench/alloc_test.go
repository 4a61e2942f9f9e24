package bench

import (
	"runtime"
	"testing"
)

// allocatedBy returns the bytes f allocates (runtime.MemStats.TotalAlloc is
// cumulative, so neither a collection during f nor garbage left over from
// earlier tests moves it). Callers pass Workers: 1 so everything f does
// runs on this goroutine's kernel; tests here do not run in parallel.
func allocatedBy(t *testing.T, f func() error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTransferAllocationBudget pins the payload-ownership rule on the gridftp
// path: a served file is allocated once, a received file is allocated once,
// and nothing between them allocates in proportion to the bytes moved. With
// the store copying in and out, a fresh buffer per block and a per-byte fill,
// the same point allocated over 5 x FileSize.
func TestTransferAllocationBudget(t *testing.T) {
	const fileSize = 4 << 20
	got := allocatedBy(t, func() error {
		_, err := RunTransfer(TransferConfig{
			FileSize: fileSize, Streams: []int{2}, LossRates: []float64{0.005}, Workers: 1,
		})
		return err
	})
	t.Logf("one %d-byte transfer over 2 streams allocated %d bytes (%.2f x FileSize)",
		fileSize, got, float64(got)/fileSize)
	if got >= fileSize*5/2 {
		t.Errorf("transfer allocated %d bytes, want < 2.5 x FileSize (%d)", got, fileSize*5/2)
	}
}

// TestSweepAllocationBudget pins the same rule on the bandwidth sweep: one
// message buffer per size and testbed, reused every round. Allocating the
// message anew each round cost 55.1 MB for these 8 rounds (nine sends of six
// sizes on four testbeds, plus the testbeds and their segments).
func TestSweepAllocationBudget(t *testing.T) {
	const parentBytes = 55_100_000
	got := allocatedBy(t, func() error {
		_, err := RunBandwidthSweep(Table2Config{Rounds: 8, Workers: 1})
		return err
	})
	t.Logf("8-round bandwidth sweep allocated %d bytes", got)
	if got >= parentBytes/4 {
		t.Errorf("sweep allocated %d bytes, want < %d (a quarter of the per-round-allocation cost)", got, parentBytes/4)
	}
}
