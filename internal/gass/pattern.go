package gass

// FillPattern sets b[i] = byte(i*mul + i>>shift) for every i: the synthetic
// file contents the gridftp transfer sweep serves. The pattern repeats every
// 256<<shift bytes, so one period is computed and the rest is filled by
// doubling copies instead of a per-byte loop.
func FillPattern(b []byte, mul, shift int) {
	n := min(len(b), 256<<shift)
	for i := 0; i < n; i++ {
		b[i] = byte(i*mul + i>>shift)
	}
	for n < len(b) {
		n += copy(b[n:], b[:n])
	}
}
