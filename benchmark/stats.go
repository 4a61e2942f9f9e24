package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of xs (p in (0,100]): the
// smallest sample with at least p% of the samples at or below it. It returns
// NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	// The small slack keeps 99.9% of 10,000 at rank 9,990, not one above it
	// by rounding.
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the 50th percentile with the two middle samples averaged for an
// even count, matching Python's statistics.median, which the driver uses.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive method of
// Python's statistics.quantiles(xs, n=4), so a spread computed here is the
// spread the driver computes. With fewer than two samples both are the median.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		m := median(xs)
		return m, m
	}
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// tailLevels are the percentiles a timing may be reported at, each with the
// share of samples beyond it written as one in so many.
var tailLevels = []struct {
	level float64
	oneIn int
}{{50, 2}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// tailPercentile picks the highest level of tailLevels that still has at
// least ten samples beyond it, and returns the level with its value. A tail
// read from fewer samples than that is the position of a handful of outliers,
// not a property of the system.
func tailPercentile(xs []float64) (level, value float64) {
	level = tailLevels[0].level
	for _, t := range tailLevels {
		if len(xs) >= 10*t.oneIn {
			level = t.level
		}
	}
	return level, percentile(xs, level)
}
