package dist

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestSampleSufficientStats(t *testing.T) {
	data := []float64{3.5, 0.2, 7.1, 1.0, 2.2, 9.9, 0.8}
	s := NewSample(data)
	if s.err != nil {
		t.Fatalf("err = %v", s.err)
	}
	if !s.positive {
		t.Fatal("positive = false for all-positive data")
	}
	n := float64(len(data))
	var sum, sumLog, sumInv float64
	for _, x := range data {
		sum += x
		sumLog += math.Log(x)
		sumInv += 1 / x
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"N", float64(s.N()), n},
		{"Min", s.Min(), 0.2},
		{"sum", s.sum, sum},
		{"SumLog", s.SumLog(), sumLog},
		{"SumInv", s.SumInv(), sumInv},
		{"Mean", s.Mean(), sum / n},
		{"MeanLog", s.MeanLog(), sumLog / n},
	}
	for _, c := range checks {
		if !almostEqual(c.got, c.want, 1e-12) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	var ss, ssLog float64
	for _, x := range data {
		d := x - sum/n
		ss += d * d
		dl := math.Log(x) - sumLog/n
		ssLog += dl * dl
	}
	if !almostEqual(s.variance, ss/n, 1e-12) {
		t.Errorf("variance = %v, want %v", s.variance, ss/n)
	}
	if !almostEqual(s.VarLog(), ssLog/n, 1e-12) {
		t.Errorf("VarLog = %v, want %v", s.VarLog(), ssLog/n)
	}
	if !sort.Float64sAreSorted(s.Sorted()) {
		t.Error("Sorted() is not ascending")
	}
	if data[0] != 3.5 {
		t.Error("NewSample mutated its input")
	}
}

func TestSampleErrors(t *testing.T) {
	if err := NewSample(nil).err; !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("empty sample err = %v, want ErrTooFewPoints", err)
	}
	if err := NewSample([]float64{4}).err; !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("single-point err = %v, want ErrTooFewPoints", err)
	}
	bad := NewSample([]float64{1, math.NaN(), 3})
	if !errors.Is(bad.err, ErrBadSample) {
		t.Errorf("NaN sample err = %v, want ErrBadSample", bad.err)
	}
	inf := NewSample([]float64{1, math.Inf(1), 3})
	if !errors.Is(inf.err, ErrBadSample) {
		t.Errorf("Inf sample err = %v, want ErrBadSample", inf.err)
	}
	neg := NewSample([]float64{-1, 2, 3})
	if neg.err != nil {
		t.Errorf("negative sample err = %v, want nil", neg.err)
	}
	if neg.positive {
		t.Error("positive = true with a negative point")
	}
	if !math.IsNaN(neg.SumLog()) || !math.IsNaN(neg.MeanLog()) || !math.IsNaN(neg.SumInv()) {
		t.Error("log statistics should be NaN for non-positive data")
	}
}

func TestNewSampleSortedFallback(t *testing.T) {
	unsorted := []float64{5, 1, 3}
	s := NewSampleSorted(unsorted)
	if !sort.Float64sAreSorted(s.Sorted()) {
		t.Error("Sorted() not ascending after unsorted adoption")
	}
	if unsorted[0] != 5 {
		t.Error("NewSampleSorted mutated unsorted input instead of copying")
	}
	pre := []float64{1, 3, 5}
	s2 := NewSampleSorted(pre)
	if &s2.Sorted()[0] != &pre[0] {
		t.Error("NewSampleSorted copied an already-sorted slice")
	}
}

// testDists is one distribution per family with support covering positive
// reals, used by the statistic-equivalence tests.
func testDists(t *testing.T) []Distribution {
	t.Helper()
	exp, _ := NewExponential(0.4)
	wb, _ := NewWeibull(0.8, 3)
	par, _ := NewPareto(0.05, 1.6)
	ln, _ := NewLogNormal(0.3, 1.1)
	gm, _ := NewGamma(2.2, 0.9)
	er, _ := NewErlang(3, 1.2)
	ig, _ := NewInverseGaussian(2.5, 4)
	return []Distribution{exp, wb, par, ln, gm, er, ig}
}

// TestKSCollapsedECDFBitIdentical pins that the memoized-ECDF KS — which
// evaluates the CDF only at distinct values — returns the exact bits of the
// full per-point scan, on a heavily tied series.
func TestKSCollapsedECDFBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := make([]float64, 3000)
	for i := range data {
		// Quantized to integers: roughly half the points are ties.
		data[i] = math.Floor(rng.ExpFloat64()*40) + 1
	}
	s := NewSample(data)
	if xs, _ := s.ECDFPoints(); len(xs) == len(data) {
		t.Fatal("test series has no ties; quantize harder")
	}
	for _, d := range testDists(t) {
		if got, want := s.KSStatistic(d), ksStatisticPerPoint(d, s.Sorted()); got != want {
			t.Errorf("%T: collapsed KS %v != full scan %v", d, got, want)
		}
	}
}

// TestClosedFormLogLikelihood checks the sufficient-statistic likelihoods
// against the generic O(n) scan for every family with a closed form.
func TestClosedFormLogLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]float64, 5000)
	for i := range data {
		data[i] = rng.ExpFloat64()*4 + 0.05
	}
	s := NewSample(data)
	for _, d := range testDists(t) {
		got := s.LogLikelihood(d)
		want := LogLikelihood(d, data)
		if !almostEqual(got, want, 1e-8) {
			t.Errorf("%T: closed-form LogL %v, scan %v", d, got, want)
		}
	}
}

// TestKSPolishSampleMatchesKSPolish pins the polish path equivalence: the
// Sample-based KSPolish (collapsed ECDF, branch-and-bound, one candidate
// buffer) must land on exactly the parameters and KS bits of the full-scan
// coordinate descent over the sorted points, and must not make the fit worse.
func TestKSPolishSampleMatchesKSPolish(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	truth, _ := NewExponential(0.5)
	data := make([]float64, 3000)
	for i := range data {
		data[i] = truth.Rand(rng)
	}
	start, _ := NewExponential(0.4)
	s := NewSample(data)
	d1, ks1 := ksPolishFullScan(start, s.Sorted(), 15)
	d2, ks2, _, err := KSPolish(start, s, 15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ks1) != math.Float64bits(ks2) {
		t.Errorf("polished KS: full scan %v, sample %v", ks1, ks2)
	}
	if d1.(Exponential).Rate != d2.(Exponential).Rate {
		t.Errorf("polished rate: full scan %v, sample %v", d1.(Exponential).Rate, d2.(Exponential).Rate)
	}
	if ks2 > s.KSStatistic(start) {
		t.Error("polish made the KS statistic worse")
	}
}

// TestSortedStatisticsAllocFree verifies the Sample statistics allocate
// nothing — the point of the sort-once design.
func TestSortedStatisticsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := make([]float64, 2000)
	for i := range data {
		data[i] = rng.ExpFloat64()
	}
	s := NewSample(data)
	exp, _ := NewExponential(1)
	// Convert to the interface once: a per-call conversion would itself
	// allocate and mask what the statistics do.
	var d Distribution = exp
	xs, _ := s.ECDFPoints() // warm the lazily built ECDF outside the counted runs
	cdf := make([]float64, len(xs))
	var sink float64
	if n := testing.AllocsPerRun(20, func() {
		ks, ad := s.goodnessOfFit(d, cdf)
		sink += ks + ad
		sink += s.LogLikelihood(d)
	}); n != 0 {
		t.Errorf("Sample statistics allocate %v per run, want 0", n)
	}
	_ = sink
}

func TestSampleECDFPoints(t *testing.T) {
	s := NewSample([]float64{1, 2, 2, 3})
	xs, fs := s.ECDFPoints()
	wantX := []float64{1, 2, 3}
	wantF := []float64{0.25, 0.75, 1}
	if len(xs) != len(wantX) {
		t.Fatalf("ECDFPoints: %d distinct values, want %d", len(xs), len(wantX))
	}
	for i := range xs {
		if xs[i] != wantX[i] || fs[i] != wantF[i] {
			t.Errorf("ECDFPoints[%d] = (%v,%v), want (%v,%v)", i, xs[i], fs[i], wantX[i], wantF[i])
		}
	}
}

// TestSampleConcurrentUse exercises the lazily built ECDF and the shared
// statistics from many goroutines; run with -race.
func TestSampleConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	data := make([]float64, 1000)
	for i := range data {
		data[i] = rng.ExpFloat64()
	}
	s := NewSample(data)
	exp, _ := NewExponential(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs, _ := s.ECDFPoints()
			_ = len(xs)
			_ = s.LogLikelihood(exp)
			_ = s.KSStatistic(exp)
			_, _ = gof(s, exp) // each goroutine owns its table
		}()
	}
	wg.Wait()
}
