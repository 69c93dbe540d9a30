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
	nm, _ := NewNormal(3, 2)
	return []Distribution{exp, wb, par, ln, gm, er, ig, nm}
}

// TestKSADSortedEquivalence pins the compatibility contract: the slice APIs
// (copy + sort) and the Sorted cores produce bit-identical statistics.
func TestKSADSortedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, 4000)
	for i := range data {
		data[i] = rng.ExpFloat64()*5 + 0.1
	}
	s := NewSample(data)
	for _, d := range testDists(t) {
		if got, want := KSStatisticSorted(d, s.Sorted()), KSStatistic(d, data); got != want {
			t.Errorf("%T: KS sorted %v != slice %v", d, got, want)
		}
		if got, want := ADStatisticSorted(d, s.Sorted()), ADStatistic(d, data); got != want {
			t.Errorf("%T: AD sorted %v != slice %v", d, got, want)
		}
	}
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
		if got, want := s.KSStatistic(d), KSStatisticSorted(d, s.Sorted()); got != want {
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

// TestFitSampleMatchesFit pins bit-identical parameters between the slice
// and Sample fitting paths for every built-in family.
func TestFitSampleMatchesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := make([]float64, 8000)
	for i := range data {
		data[i] = rng.ExpFloat64()*3 + 0.2
	}
	s := NewSample(data)
	fitters := append(DefaultFitters(), LogLogisticFitter{}, NormalFitter{})
	for _, f := range fitters {
		sf, ok := f.(SampleFitter)
		if !ok {
			t.Errorf("%s does not implement SampleFitter", f.FamilyName())
			continue
		}
		viaSlice, err1 := f.Fit(data)
		viaSample, err2 := sf.FitSample(s)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("%s: err mismatch slice=%v sample=%v", f.FamilyName(), err1, err2)
			continue
		}
		if err1 != nil {
			continue
		}
		p1, ok1 := viaSlice.(Parametric)
		p2, ok2 := viaSample.(Parametric)
		if !ok1 || !ok2 {
			continue
		}
		a, b := p1.Params(), p2.Params()
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: param %d differs: slice %v, sample %v", f.FamilyName(), i, a[i], b[i])
			}
		}
	}
}

// TestKSPolishSampleMatchesKSPolish pins the polish path equivalence.
func TestKSPolishSampleMatchesKSPolish(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	truth, _ := NewExponential(0.5)
	data := make([]float64, 3000)
	for i := range data {
		data[i] = truth.Rand(rng)
	}
	start, _ := NewExponential(0.4)
	d1, ks1, err1 := KSPolish(start, data, 15)
	d2, ks2, err2 := KSPolishSample(start, NewSample(data), 15)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	if ks1 != ks2 {
		t.Errorf("polished KS %v != %v", ks1, ks2)
	}
	if d1.(Exponential).Rate != d2.(Exponential).Rate {
		t.Errorf("polished rate %v != %v", d1.(Exponential).Rate, d2.(Exponential).Rate)
	}
	if ks2 > KSStatisticSorted(start, NewSample(data).Sorted()) {
		t.Error("polish made the KS statistic worse")
	}
}

// TestSortedStatisticsAllocFree verifies the KS/AD cores allocate nothing —
// the point of the sort-once refactor.
func TestSortedStatisticsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := make([]float64, 2000)
	for i := range data {
		data[i] = rng.ExpFloat64()
	}
	s := NewSample(data)
	exp, _ := NewExponential(1)
	// Convert to the interface once: a per-call conversion would itself
	// allocate and mask what the cores do.
	var d Distribution = exp
	sorted := s.Sorted()
	s.ECDFPoints() // warm the lazily built ECDF outside the counted runs
	var sink float64
	if n := testing.AllocsPerRun(20, func() {
		sink += KSStatisticSorted(d, sorted)
		sink += ADStatisticSorted(d, sorted)
		sink += s.KSStatistic(d)
		sink += s.LogLikelihood(d)
	}); n != 0 {
		t.Errorf("sorted statistic cores allocate %v per run, want 0", n)
	}
	_ = sink
}

func TestSampleECDFAndQuantile(t *testing.T) {
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
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := s.Quantile(1); got != 3 {
		t.Errorf("Quantile(1) = %v, want 3", got)
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
			_ = KSStatisticSorted(exp, s.Sorted())
			_ = s.Quantile(0.9)
		}()
	}
	wg.Wait()
}
