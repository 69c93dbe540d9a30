package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A
// tail percentile resting on fewer samples is one or two outliers, not a
// property of the system, so the helper refuses it.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by the
// nearest-rank rule, with the sample count. It refuses when fewer than
// minBeyond samples lie above the chosen rank.
func percentile(samples []float64, q float64) (float64, int, error) {
	n := len(samples)
	if q <= 0 || q >= 1 {
		return 0, n, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, n, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minBeyond)
	}
	s := sortedCopy(samples)
	return s[rank-1], n, nil
}

// median is the middle of the samples (mean of the two middle ones for an
// even count). It is the summary of a handful of repeated measurements,
// where the tail rule of percentile does not apply.
func median(samples []float64) float64 {
	s := sortedCopy(samples)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
