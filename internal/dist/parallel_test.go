package dist

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestFitAllParallelMatchesSerial is the determinism contract of concurrent
// model selection: every candidate's statistics and the final ranking are
// identical at any worker count, because each fit writes to its fitter's
// slot and the stable sort runs after the fan-in.
func TestFitAllParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w, err := NewWeibull(0.7, 1800)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, 4000)
	for i := range data {
		data[i] = w.Rand(rng)
	}
	want := FitAll(NewSample(data), nil, 1)
	for _, workers := range []int{0, 2, 8} {
		got := FitAll(NewSample(data), nil, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range got {
			g, s := got[i], want[i]
			if g.Family != s.Family {
				t.Fatalf("workers=%d: rank %d is %s, want %s", workers, i, g.Family, s.Family)
			}
			if g.KS != s.KS || g.AD != s.AD || g.PValue != s.PValue ||
				g.LogL != s.LogL || g.AIC != s.AIC || g.BIC != s.BIC {
				t.Errorf("workers=%d: %s statistics differ: %+v vs %+v", workers, g.Family, g, s)
			}
			if !reflect.DeepEqual(g.Dist, s.Dist) {
				t.Errorf("workers=%d: %s fitted parameters differ", workers, g.Family)
			}
			if (g.Err == nil) != (s.Err == nil) {
				t.Errorf("workers=%d: %s error mismatch: %v vs %v", workers, g.Family, g.Err, s.Err)
			}
		}
	}
}
