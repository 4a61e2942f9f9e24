package main

import "testing"

func TestMediansCollapsesRepeatedRuns(t *testing.T) {
	var in []Record
	for _, line := range []string{
		"BenchmarkA-2  100  30.0 ns/op  3 B/op  1 allocs/op",
		"BenchmarkB/x=1-2  100  7.0 ns/op",
		"BenchmarkA-2  300  10.0 ns/op  1 B/op  1 allocs/op",
		"BenchmarkA-2  200  20.0 ns/op  2 B/op  1 allocs/op",
		"ok  nxcluster 1.0s",
	} {
		if r, ok := parseLine(line); ok {
			in = append(in, r)
		}
	}
	got := medians(in)
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB/x=1" {
		t.Fatalf("got %+v", got)
	}
	if a := got[0]; a.NsPerOp != 20 || a.Iterations != 200 || a.BytesPerOp != 2 {
		t.Fatalf("median of A = %+v, want the 20 ns/op run whole", a)
	}
	if got[1].NsPerOp != 7 {
		t.Fatalf("single run of B = %+v", got[1])
	}
}
