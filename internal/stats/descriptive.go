// Package stats provides the descriptive and inferential statistics the
// failure analysis needs: summaries, quantiles, empirical CDFs, histograms,
// rank and product-moment correlation, categorical association, inequality
// measures (Lorenz/Gini) and bootstrap confidence intervals.
//
// Everything is implemented on plain []float64 with no external
// dependencies; functions never mutate their inputs.
package stats

import (
	"errors"
	"math"
	"sort"
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

// Summarize computes a Summary of data. The input need not be sorted; it is
// copied and sorted once. Callers that already hold an ascending series
// should use SummarizeSorted, which skips the defensive copy + sort.
func Summarize(data []float64) (Summary, error) {
	if len(data) == 0 {
		return Summary{}, ErrEmpty
	}
	return SummarizeSorted(sortedCopy(data))
}

// sortedCopy returns an ascending-sorted copy of data. Samples over a small
// value domain (schedulable block sizes, task counts) skip the comparison
// sort: the sorted array is rebuilt as runs of each distinct value, which
// yields the exact same bits as sorting — among equal-comparing float64s
// only ±0 and NaNs differ in representation, and those decline the fast
// path.
func sortedCopy(data []float64) []float64 {
	sorted := append([]float64(nil), data...)
	if !sortSmallDomain(sorted) {
		sort.Float64s(sorted)
	}
	return sorted
}

// sortSmallDomain sorts x in place and reports true when x is drawn from at
// most maxRankDomain distinct values, none NaN or negative zero; otherwise
// it leaves x untouched and reports false.
func sortSmallDomain(x []float64) bool {
	var vals [maxRankDomain]float64
	var cnts [maxRankDomain]int
	nd := 0
collect:
	for _, v := range x {
		if v != v || (v == 0 && math.Signbit(v)) {
			return false
		}
		for j := 0; j < nd; j++ {
			if vals[j] == v {
				cnts[j]++
				continue collect
			}
		}
		if nd == maxRankDomain {
			return false
		}
		vals[nd] = v
		cnts[nd] = 1
		nd++
	}
	for i := 1; i < nd; i++ {
		v, c := vals[i], cnts[i]
		j := i - 1
		for j >= 0 && vals[j] > v {
			vals[j+1], cnts[j+1] = vals[j], cnts[j]
			j--
		}
		vals[j+1], cnts[j+1] = v, c
	}
	pos := 0
	for j := 0; j < nd; j++ {
		for k := 0; k < cnts[j]; k++ {
			x[pos] = vals[j]
			pos++
		}
	}
	return true
}

// SummarizeSorted computes a Summary of an ascending-sorted sample without
// copying or re-sorting it. The input is not mutated. Unsorted input yields
// wrong quantiles and min/max; when in doubt, use Summarize.
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
	s.Median = quantileSorted(sorted, 0.5)
	s.P25 = quantileSorted(sorted, 0.25)
	s.P75 = quantileSorted(sorted, 0.75)
	s.P95 = quantileSorted(sorted, 0.95)
	s.P99 = quantileSorted(sorted, 0.99)
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
func Quantile(data []float64, p float64) (float64, error) {
	if len(data) == 0 {
		return 0, ErrEmpty
	}
	return quantileSorted(sortedCopy(data), p), nil
}

// quantileSorted computes the type-7 quantile of an already-sorted sample.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// Quantiles returns the quantiles of data at each probability in ps with a
// single sort.
func Quantiles(data []float64, ps []float64) ([]float64, error) {
	if len(data) == 0 {
		return nil, ErrEmpty
	}
	sorted := sortedCopy(data)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = quantileSorted(sorted, p)
	}
	return out, nil
}
