package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
// A percentile with fewer samples beyond it is set by a handful of
// outliers and moves from run to run on noise alone.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples. It refuses a percentile that would leave fewer than
// minBeyond samples above it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %.2f of %d samples: out of range", q, n)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%.0f of %d samples leaves %d beyond it, want >= %d",
			100*q, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// median of unsorted values (the slice is not modified).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns Q1, median and Q3 exactly as Python's
// statistics.quantiles(values, n=4) does (its default exclusive
// method, interpolating and clamping the same way), which is how the
// steadiness of a metric is judged.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}
