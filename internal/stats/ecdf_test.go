package stats

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestECDFBasic(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	e, err := NewECDFSorted(sorted)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		p, want float64
	}{
		{-1, 1}, {0, 1}, {0.5, 2.5}, {1, 4}, {2, 4},
	}
	for _, tt := range tests {
		if got := e.Quantile(tt.p); got != tt.want {
			t.Errorf("Q(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	// Unsorted input falls back to a private sorted copy and leaves the
	// caller's slice alone.
	unsorted := []float64{4, 1, 3, 2}
	u, err := NewECDFSorted(unsorted)
	if err != nil {
		t.Fatal(err)
	}
	if u.Quantile(0) != 1 || u.Quantile(1) != 4 {
		t.Errorf("unsorted fallback: Q(0) = %v, Q(1) = %v", u.Quantile(0), u.Quantile(1))
	}
	if unsorted[0] != 4 || unsorted[3] != 2 {
		t.Errorf("input mutated: %v", unsorted)
	}
	if _, err := NewECDFSorted(nil); !errors.Is(err, ErrEmpty) {
		t.Error("empty ECDF should fail")
	}
}

func TestECDFTies(t *testing.T) {
	e, _ := NewECDFSorted([]float64{2, 2, 2, 5})
	for _, p := range []float64{0, 1.0 / 3, 2.0 / 3} {
		if got := e.Quantile(p); got != 2 {
			t.Errorf("Q(%v) = %v, want 2 inside the tie", p, got)
		}
	}
	if got := e.Quantile(5.0 / 6); got != 3.5 {
		t.Errorf("Q(5/6) = %v, want 3.5", got)
	}
}

// TestECDFMonotoneProperty: the quantile is monotone non-decreasing in p,
// on sorted and unsorted input alike.
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		data := cleanFinite(raw)
		if len(data) == 0 {
			return true
		}
		e, err := NewECDFSorted(data)
		if err != nil {
			return false
		}
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return e.Quantile(a) <= e.Quantile(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func cleanFinite(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, x := range raw {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

func TestECDFSeries(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = float64(i)
	}
	e, _ := NewECDFSorted(data)
	xs, ps := e.Series(11)
	if len(xs) != 11 || ps[0] != 0 || ps[10] != 1 {
		t.Fatalf("series shape wrong: %v %v", xs, ps)
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			t.Errorf("series not monotone at %d", i)
		}
	}
}

// ksTwoSample is the two-sample KS statistic over unsorted inputs.
func ksTwoSample(a, b []float64) (float64, error) {
	return KSTwoSampleSorted(sortedCopy(a), sortedCopy(b))
}

func TestKSTwoSample(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if d, err := ksTwoSample(a, a); err != nil || d != 0 {
		t.Errorf("KS(a,a) = %v, %v", d, err)
	}
	b := []float64{101, 102, 103}
	if d, _ := ksTwoSample(a, b); d != 1 {
		t.Errorf("KS disjoint = %v, want 1", d)
	}
	if _, err := ksTwoSample(nil, a); !errors.Is(err, ErrEmpty) {
		t.Error("empty KS should fail")
	}
	// Same law → small statistic.
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 3000)
	y := make([]float64, 3000)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	d, _ := ksTwoSample(x, y)
	if d > 0.05 {
		t.Errorf("KS same law = %v, want small", d)
	}
}
