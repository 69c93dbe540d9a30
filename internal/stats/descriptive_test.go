package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	data := []float64{4, 1, 3, 2, 5}
	s, err := SummarizeSorted(sortedCopy(data))
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Sum != 15 {
		t.Errorf("summary basics wrong: %+v", s)
	}
	if s.Mean != 3 {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.Median != 3 {
		t.Errorf("median = %v", s.Median)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("std = %v, want √2", s.Std)
	}
	if _, err := SummarizeSorted(nil); !errors.Is(err, ErrEmpty) {
		t.Error("empty should return ErrEmpty")
	}
}

func TestMean(t *testing.T) {
	data := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(data); got != 5 {
		t.Errorf("mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
}

// TestSortSmallDomainMatchesSort pins SortFloat64s to sort.Float64s bit
// for bit on a sample drawn from the block sizes, where every value is
// heavily tied, and on NaN, negative-zero, continuous and 17-value inputs.
func TestSortSmallDomainMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	domain := []float64{512, 1024, 2048, 4096, 8192, 16384, 32768, 49152}
	sizes := make([]float64, 777)
	for i := range sizes {
		sizes[i] = domain[rng.Intn(len(domain))]
	}
	wide := make([]float64, 100)
	for i := range wide {
		wide[i] = rng.NormFloat64()
	}
	seventeen := make([]float64, 17)
	for i := range seventeen {
		seventeen[i] = float64(16 - i)
	}
	for name, x := range map[string][]float64{
		"sizes":    sizes,
		"nan":      {3, math.NaN(), 2},
		"negzero":  {3, math.Copysign(0, -1), 2, 0},
		"wide":     wide,
		"17values": seventeen,
	} {
		want := append([]float64(nil), x...)
		sort.Float64s(want)
		got := append([]float64(nil), x...)
		SortFloat64s(got)
		if !sameBits(got, want) {
			t.Errorf("%s: SortFloat64s = %v, want %v", name, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.75, 7.75},
	}
	for _, tt := range tests {
		got, err := Quantile(data, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Error("empty quantile should fail")
	}
	single, err := Quantile([]float64{42}, 0.3)
	if err != nil || single != 42 {
		t.Errorf("single-point quantile = %v, %v", single, err)
	}
}

func TestQuantilesBatch(t *testing.T) {
	data := []float64{5, 1, 4, 2, 3}
	sorted := sortedCopy(data)
	want := []float64{1, 3, 5}
	for i, p := range []float64{0, 0.5, 1} {
		if q := QuantileSorted(sorted, p); q != want[i] {
			t.Errorf("quantile %v = %v, want %v", p, q, want[i])
		}
	}
}

// TestQuantileMonotoneProperty: quantile is monotone in p and stays in range.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		data := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				data = append(data, x)
			}
		}
		if len(data) == 0 {
			return true
		}
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		qa, err1 := Quantile(data, pa)
		qb, err2 := Quantile(data, pb)
		if err1 != nil || err2 != nil {
			return false
		}
		lo, _ := Quantile(data, 0)
		hi, _ := Quantile(data, 1)
		return qa <= qb && qa >= lo && qb <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSummarizeQuantileOrder(t *testing.T) {
	data := []float64{9, 3, 7, 1, 12, 0.5, 100, 42, 8, 8, 8}
	s, err := SummarizeSorted(sortedCopy(data))
	if err != nil {
		t.Fatal(err)
	}
	if !(s.Min <= s.P25 && s.P25 <= s.Median && s.Median <= s.P75 &&
		s.P75 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Errorf("quantiles out of order: %+v", s)
	}
}
