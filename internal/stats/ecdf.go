package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a sample.
type ECDF struct {
	sorted []float64
}

// NewECDFSorted builds an ECDF around an already-sorted series without
// copying it — the zero-allocation path for sorted derived series (e.g. a
// dist.Sample's sorted view). The ECDF shares the slice and never mutates
// it; the caller must not mutate it either. Unsorted input is detected and
// falls back to a private sorted copy.
func NewECDFSorted(sorted []float64) (*ECDF, error) {
	if len(sorted) == 0 {
		return nil, ErrEmpty
	}
	if !sort.Float64sAreSorted(sorted) {
		sorted = sortedCopy(sorted)
	}
	return &ECDF{sorted: sorted}, nil
}

// Quantile returns the empirical p-quantile (inverse CDF).
func (e *ECDF) Quantile(p float64) float64 { return QuantileSorted(e.sorted, p) }

// Series samples the ECDF at k evenly spaced probabilities and returns the
// (value, probability) pairs — the form used for the paper's CDF figures.
func (e *ECDF) Series(k int) (xs, ps []float64) {
	if k < 2 {
		k = 2
	}
	xs = make([]float64, k)
	ps = make([]float64, k)
	for i := 0; i < k; i++ {
		p := float64(i) / float64(k-1)
		ps[i] = p
		xs[i] = e.Quantile(p)
	}
	return xs, ps
}

// KSTwoSampleSorted returns the two-sample Kolmogorov–Smirnov statistic
// sup_x |F_a(x) − F_b(x)| between ascending-sorted samples sa and sb, with
// no copies and no re-sorts. The inputs are not mutated.
func KSTwoSampleSorted(sa, sb []float64) (float64, error) {
	if len(sa) == 0 || len(sb) == 0 {
		return 0, ErrEmpty
	}
	var i, j int
	var d float64
	na, nb := float64(len(sa)), float64(len(sb))
	for i < len(sa) && j < len(sb) {
		x := math.Min(sa[i], sb[j])
		for i < len(sa) && sa[i] <= x {
			i++
		}
		for j < len(sb) && sb[j] <= x {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d, nil
}
