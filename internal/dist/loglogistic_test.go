package dist

import (
	"math"
	"testing"
)

func TestLogLogisticBasics(t *testing.T) {
	if _, err := NewLogLogistic(0, 1); err == nil {
		t.Error("zero alpha accepted")
	}
	if _, err := NewLogLogistic(1, -1); err == nil {
		t.Error("negative beta accepted")
	}
	l, err := NewLogLogistic(100, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	// Median equals alpha.
	if q := l.Quantile(0.5); math.Abs(q-100) > 1e-9 {
		t.Errorf("median = %v, want 100", q)
	}
	// CDF/Quantile inverse.
	for _, p := range []float64{0.05, 0.3, 0.5, 0.8, 0.99} {
		if got := l.CDF(l.Quantile(p)); math.Abs(got-p) > 1e-10 {
			t.Errorf("CDF(Q(%v)) = %v", p, got)
		}
	}
	// Support boundaries.
	if l.PDF(-1) != 0 || l.CDF(0) != 0 {
		t.Error("support violation")
	}
	if q := l.Quantile(1); !math.IsInf(q, 1) {
		t.Error("Quantile(1) should be +Inf")
	}
	// Mean finite for beta > 1, infinite below.
	if math.IsInf(l.Mean(), 0) {
		t.Error("mean should be finite for beta=2.5")
	}
	heavy, _ := NewLogLogistic(1, 0.8)
	if !math.IsInf(heavy.Mean(), 1) {
		t.Error("mean should be infinite for beta<1")
	}
}

func TestLogLogisticVar(t *testing.T) {
	l, _ := NewLogLogistic(10, 4)
	if math.IsInf(l.Var(), 0) || l.Var() <= 0 {
		t.Errorf("Var = %v, want positive finite for beta=4", l.Var())
	}
	l2, _ := NewLogLogistic(10, 1.5)
	if !math.IsInf(l2.Var(), 1) {
		t.Error("Var should be infinite for beta=1.5")
	}
}

func TestLogLogisticLogPDFConsistent(t *testing.T) {
	l, _ := NewLogLogistic(50, 1.8)
	for _, p := range []float64{0.1, 0.4, 0.7, 0.95} {
		x := l.Quantile(p)
		want := math.Log(l.PDF(x))
		if got := l.LogPDF(x); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Errorf("LogPDF(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestLogLogisticSampleKS(t *testing.T) {
	l, _ := NewLogLogistic(3600, 2.2)
	data := sampleFrom(l, 5000, 41)
	if ks := KSStatistic(l, data); ks > 1.63/math.Sqrt(5000) {
		t.Errorf("KS %v too large for own sample", ks)
	}
}

func TestLogLogisticFitterRecovers(t *testing.T) {
	truth, _ := NewLogLogistic(1800, 1.7)
	data := sampleFrom(truth, 30000, 42)
	got, err := (LogLogisticFitter{}).Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	l := got.(LogLogistic)
	if math.Abs(l.Alpha-1800)/1800 > 0.05 || math.Abs(l.Beta-1.7)/1.7 > 0.05 {
		t.Errorf("fit = %+v, want alpha 1800 beta 1.7", l)
	}
	if ks := KSStatistic(got, data); ks > 0.02 {
		t.Errorf("fitted KS = %v", ks)
	}
}

func TestLogLogisticFitterRejects(t *testing.T) {
	f := LogLogisticFitter{}
	if _, err := f.Fit([]float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := f.Fit([]float64{1, -1}); err == nil {
		t.Error("negative accepted")
	}
	if _, err := f.Fit([]float64{2, 2, 2}); err == nil {
		t.Error("constant accepted")
	}
}

func TestLogLogisticParamsRoundTrip(t *testing.T) {
	l, _ := NewLogLogistic(7, 3)
	back, err := l.WithParams(l.Params())
	if err != nil {
		t.Fatal(err)
	}
	if back.(LogLogistic) != l {
		t.Errorf("round trip %v -> %v", l, back)
	}
	if _, err := l.WithParams([]float64{1}); err == nil {
		t.Error("wrong arity accepted")
	}
}

func TestLogLogisticInModelSelection(t *testing.T) {
	// When data IS log-logistic, selection with the extended candidate set
	// must pick it (or lognormal, its closest neighbour at small n).
	truth, _ := NewLogLogistic(900, 2.0)
	data := sampleFrom(truth, 8000, 43)
	fitters := append(DefaultFitters(), LogLogisticFitter{})
	best, err := SelectBestSample(NewSample(data), fitters)
	if err != nil {
		t.Fatal(err)
	}
	if best.Family != "loglogistic" {
		t.Errorf("selected %s (KS %v), want loglogistic", best.Family, best.KS)
	}
}
