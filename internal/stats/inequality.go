package stats

import (
	"math"
	"sort"
)

// Gini returns the Gini coefficient of the non-negative sample — 0 for a
// perfectly even spread, →1 when one unit holds everything. The paper uses
// concentration measures for workload skew (jobs/core-hours per user) and
// for the spatial locality of RAS events.
func Gini(data []float64) (float64, error) {
	if len(data) == 0 {
		return 0, ErrEmpty
	}
	sorted := sortedCopy(data)
	n := float64(len(sorted))
	var cum, total float64
	for i, x := range sorted {
		if x < 0 {
			x = 0
		}
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0, nil
	}
	return (2*cum)/(n*total) - (n+1)/n, nil
}

// Lorenz returns k+1 points of the Lorenz curve of the sample: share of the
// total held by the bottom fraction p of units, for p = 0, 1/k, ..., 1.
func Lorenz(data []float64, k int) (ps, shares []float64, err error) {
	if len(data) == 0 {
		return nil, nil, ErrEmpty
	}
	if k < 1 {
		k = 10
	}
	sorted := sortedCopy(data)
	total := 0.0
	for _, x := range sorted {
		total += x
	}
	cum := make([]float64, len(sorted)+1)
	for i, x := range sorted {
		cum[i+1] = cum[i] + x
	}
	ps = make([]float64, k+1)
	shares = make([]float64, k+1)
	for i := 0; i <= k; i++ {
		p := float64(i) / float64(k)
		ps[i] = p
		idx := int(math.Round(p * float64(len(sorted))))
		if total > 0 {
			shares[i] = cum[idx] / total
		}
	}
	return ps, shares, nil
}

// TopKShare returns the fraction of the total held by the largest k units.
func TopKShare(data []float64, k int) (float64, error) {
	if len(data) == 0 {
		return 0, ErrEmpty
	}
	if k >= len(data) {
		return 1, nil
	}
	sorted := append([]float64(nil), data...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	var top, total float64
	for i, x := range sorted {
		total += x
		if i < k {
			top += x
		}
	}
	if total == 0 {
		return 0, nil
	}
	return top / total, nil
}
