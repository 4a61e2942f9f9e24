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
// path: the served file is allocated once per process and size, and nothing
// on the receive side or between the ends allocates in proportion to the
// file (the point checks each block against the source instead of assembling
// a copy). With the store copying in and out, a fresh buffer per block and a
// per-byte fill, the same point allocated over 5 x FileSize; with a received
// copy, 2.19 x. A second call of the same size serves the file the first one
// built (0.15 x FileSize); with a file built per call it allocated 1.15 x.
func TestTransferAllocationBudget(t *testing.T) {
	const fileSize = 4 << 20
	cfg := func(size int) TransferConfig {
		return TransferConfig{FileSize: size, Streams: []int{2}, LossRates: []float64{0.005}, Workers: 1}
	}
	var first, second []TransferPoint
	got := allocatedBy(t, func() (err error) {
		first, err = RunTransfer(cfg(fileSize))
		return err
	})
	t.Logf("one %d-byte transfer over 2 streams allocated %d bytes (%.2f x FileSize)",
		fileSize, got, float64(got)/fileSize)
	if got >= fileSize*3/2 {
		t.Errorf("transfer allocated %d bytes, want < 1.5 x FileSize (%d)", got, fileSize*3/2)
	}

	got = allocatedBy(t, func() (err error) {
		second, err = RunTransfer(cfg(fileSize))
		return err
	})
	t.Logf("the same transfer again allocated %d bytes (%.2f x FileSize)", got, float64(got)/fileSize)
	if got >= fileSize/2 {
		t.Errorf("second same-size transfer allocated %d bytes, want < 0.5 x FileSize (%d): the source file is rebuilt", got, fileSize/2)
	}
	if len(first) != 1 || len(second) != 1 || first[0] != second[0] {
		t.Errorf("second call's points %+v differ from the first's %+v", second, first)
	}

	// Another size replaces the shared file. A point succeeds only once the
	// verifier has accepted every byte of [0, Bytes) against the file it
	// serves, so Bytes == FileSize says exactly FileSize bytes went through.
	const otherSize = fileSize / 4
	other, err := RunTransfer(cfg(otherSize))
	if err != nil {
		t.Fatal(err)
	}
	if other[0].Bytes != otherSize {
		t.Errorf("a %d-byte call moved %d bytes", otherSize, other[0].Bytes)
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
