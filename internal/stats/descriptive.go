// Package stats provides the descriptive and inferential statistics the
// failure analysis needs: summaries, quantiles, empirical CDFs, rank and
// product-moment correlation, categorical association, inequality measures
// (Lorenz/Gini) and Kaplan–Meier survival, over one radix sort kernel
// (order.go).
//
// Everything is implemented on plain []float64 with no external
// dependencies; functions never mutate their inputs.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned when a computation receives no data.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // population standard deviation
	Min    float64
	Max    float64
	Sum    float64
	Median float64
	P25    float64
	P75    float64
	P95    float64
	P99    float64
}

// sortedCopy returns an ascending-sorted copy of data (SortFloat64s).
func sortedCopy(data []float64) []float64 {
	sorted := append([]float64(nil), data...)
	SortFloat64s(sorted)
	return sorted
}

// SummarizeSorted computes a Summary of an ascending-sorted sample without
// copying or re-sorting it. The input is not mutated. Unsorted input yields
// wrong quantiles and min/max; sort a copy with SortFloat64s first.
func SummarizeSorted(sorted []float64) (Summary, error) {
	if len(sorted) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{N: len(sorted), Min: sorted[0], Max: sorted[len(sorted)-1]}
	for _, x := range sorted {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	ss := 0.0
	for _, x := range sorted {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.N))
	s.Median = QuantileSorted(sorted, 0.5)
	s.P25 = QuantileSorted(sorted, 0.25)
	s.P75 = QuantileSorted(sorted, 0.75)
	s.P95 = QuantileSorted(sorted, 0.95)
	s.P99 = QuantileSorted(sorted, 0.99)
	return s, nil
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func Mean(data []float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range data {
		sum += x
	}
	return sum / float64(len(data))
}

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of data using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It works on a copy of data.
func Quantile(data []float64, p float64) (float64, error) {
	if len(data) == 0 {
		return 0, ErrEmpty
	}
	keys, ok := floatKeys(data)
	if !ok {
		return QuantileSorted(sortedCopy(data), p), nil
	}
	// Select the order statistics the quantile reads instead of sorting:
	// an ascending multiset without NaN or −0 has one bit pattern, so the
	// i-th smallest key is the i-th sorted value.
	return quantileAt(len(keys), p, func(i int) float64 { return keyFloat(selectNth(keys, i)) }), nil
}

// QuantileSorted returns the type-7 p-quantile of an ascending-sorted,
// non-empty sample, without copying or sorting it.
func QuantileSorted(sorted []float64, p float64) float64 {
	return quantileAt(len(sorted), p, func(i int) float64 { return sorted[i] })
}

// quantileAt is the type-7 p-quantile of n ascending values, at(i) being
// the i-th (0-based).
func quantileAt(n int, p float64, at func(int) float64) float64 {
	if n == 1 || p <= 0 {
		return at(0)
	}
	if p >= 1 {
		return at(n - 1)
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= n {
		return at(n - 1)
	}
	a := at(lo)
	return a + frac*(at(lo+1)-a)
}
