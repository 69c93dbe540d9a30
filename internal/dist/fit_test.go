package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// sampleFrom draws n variates from d with a fixed seed.
func sampleFrom(d Distribution, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Rand(rng)
	}
	return out
}

// TestFitterRecoversParameters draws from a known law and checks the MLE
// recovers the parameters within a few percent.
func TestFitterRecoversParameters(t *testing.T) {
	const n = 50000
	t.Run("exponential", func(t *testing.T) {
		truth, _ := NewExponential(0.3)
		got, err := (ExponentialFitter{}).Fit(NewSample(sampleFrom(truth, n, 1)))
		if err != nil {
			t.Fatal(err)
		}
		e := got.(Exponential)
		if math.Abs(e.Rate-0.3) > 0.01 {
			t.Errorf("rate = %v, want 0.3", e.Rate)
		}
	})
	t.Run("weibull", func(t *testing.T) {
		truth, _ := NewWeibull(0.7, 5)
		got, err := (WeibullFitter{}).Fit(NewSample(sampleFrom(truth, n, 2)))
		if err != nil {
			t.Fatal(err)
		}
		w := got.(Weibull)
		if math.Abs(w.Shape-0.7) > 0.02 || math.Abs(w.Scale-5) > 0.2 {
			t.Errorf("weibull fit = %+v, want shape 0.7 scale 5", w)
		}
	})
	t.Run("weibull-increasing-hazard", func(t *testing.T) {
		truth, _ := NewWeibull(3.2, 1.4)
		got, err := (WeibullFitter{}).Fit(NewSample(sampleFrom(truth, n, 3)))
		if err != nil {
			t.Fatal(err)
		}
		w := got.(Weibull)
		if math.Abs(w.Shape-3.2) > 0.1 || math.Abs(w.Scale-1.4) > 0.05 {
			t.Errorf("weibull fit = %+v, want shape 3.2 scale 1.4", w)
		}
	})
	t.Run("pareto", func(t *testing.T) {
		truth, _ := NewPareto(2, 1.8)
		got, err := (ParetoFitter{}).Fit(NewSample(sampleFrom(truth, n, 4)))
		if err != nil {
			t.Fatal(err)
		}
		p := got.(Pareto)
		if math.Abs(p.Xm-2) > 0.01 || math.Abs(p.Alpha-1.8) > 0.05 {
			t.Errorf("pareto fit = %+v, want xm 2 alpha 1.8", p)
		}
	})
	t.Run("lognormal", func(t *testing.T) {
		truth, _ := NewLogNormal(2, 0.6)
		got, err := (LogNormalFitter{}).Fit(NewSample(sampleFrom(truth, n, 5)))
		if err != nil {
			t.Fatal(err)
		}
		l := got.(LogNormal)
		if math.Abs(l.Mu-2) > 0.02 || math.Abs(l.Sigma-0.6) > 0.02 {
			t.Errorf("lognormal fit = %+v, want mu 2 sigma 0.6", l)
		}
	})
	t.Run("gamma", func(t *testing.T) {
		truth, _ := NewGamma(2.5, 0.8)
		got, err := (GammaFitter{}).Fit(NewSample(sampleFrom(truth, n, 6)))
		if err != nil {
			t.Fatal(err)
		}
		g := got.(Gamma)
		if math.Abs(g.Shape-2.5) > 0.08 || math.Abs(g.Rate-0.8) > 0.03 {
			t.Errorf("gamma fit = %+v, want shape 2.5 rate 0.8", g)
		}
	})
	t.Run("erlang", func(t *testing.T) {
		truth, _ := NewErlang(4, 2)
		got, err := (ErlangFitter{}).Fit(NewSample(sampleFrom(truth, n, 7)))
		if err != nil {
			t.Fatal(err)
		}
		e := got.(Erlang)
		if e.K != 4 || math.Abs(e.Rate-2) > 0.05 {
			t.Errorf("erlang fit = %+v, want k 4 rate 2", e)
		}
	})
	t.Run("inverse-gaussian", func(t *testing.T) {
		truth, _ := NewInverseGaussian(3, 9)
		got, err := (InverseGaussianFitter{}).Fit(NewSample(sampleFrom(truth, n, 8)))
		if err != nil {
			t.Fatal(err)
		}
		ig := got.(InverseGaussian)
		if math.Abs(ig.Mu-3) > 0.05 || math.Abs(ig.Lambda-9) > 0.3 {
			t.Errorf("ig fit = %+v, want mu 3 lambda 9", ig)
		}
	})
}

func TestFittersRejectBadSamples(t *testing.T) {
	positiveFitters := []Fitter{
		ExponentialFitter{}, WeibullFitter{}, ParetoFitter{},
		LogNormalFitter{}, GammaFitter{}, ErlangFitter{}, InverseGaussianFitter{},
	}
	for _, f := range positiveFitters {
		if _, err := f.Fit(NewSample([]float64{1, -2, 3})); err == nil {
			t.Errorf("%s: negative value accepted", f.FamilyName())
		}
		if _, err := f.Fit(NewSample([]float64{1})); err == nil {
			t.Errorf("%s: single point accepted", f.FamilyName())
		}
		if _, err := f.Fit(NewSample(nil)); err == nil {
			t.Errorf("%s: empty sample accepted", f.FamilyName())
		}
		if _, err := f.Fit(NewSample([]float64{1, math.NaN()})); err == nil {
			t.Errorf("%s: NaN accepted", f.FamilyName())
		}
	}
	// Degenerate constant samples should error, not return garbage.
	constant := NewSample([]float64{2, 2, 2, 2})
	for _, f := range []Fitter{ParetoFitter{}, LogNormalFitter{}, InverseGaussianFitter{}, GammaFitter{}} {
		if _, err := f.Fit(constant); err == nil {
			t.Errorf("%s: constant sample accepted", f.FamilyName())
		}
	}
	if _, err := (ExponentialFitter{}).Fit(NewSample([]float64{1, 2})); err != nil {
		t.Errorf("exponential on valid pair: %v", err)
	}
	if _, err := (ExponentialFitter{}).Fit(NewSample([]float64{3})); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("want ErrTooFewPoints, got %v", err)
	}
}

// TestModelSelectionIdentifiesTrueFamily is the core statistical guarantee
// behind experiment E6: for samples generated from each of the paper's four
// best-fit families, SelectBest must rank the true family first (or an
// equivalent: gamma/erlang/exponential overlap).
func TestModelSelectionIdentifiesTrueFamily(t *testing.T) {
	const n = 8000
	equivalent := map[string][]string{
		"exponential":      {"exponential", "erlang", "gamma", "weibull"},
		"erlang":           {"erlang", "gamma"},
		"weibull":          {"weibull"},
		"pareto":           {"pareto"},
		"inverse-gaussian": {"inverse-gaussian"},
		"lognormal":        {"lognormal", "inverse-gaussian"},
	}
	cases := []Distribution{
		mustAny(NewWeibull(0.6, 3600)),
		mustAny(NewPareto(60, 1.4)),
		mustAny(NewInverseGaussian(3600, 14400)),
		mustAny(NewErlang(3, 1.0/1800)),
		mustAny(NewLogNormal(7, 1.1)),
	}
	for i, truth := range cases {
		data := sampleFrom(truth, n, int64(100+i))
		best, err := SelectBest(NewSample(data), nil)
		if err != nil {
			t.Fatalf("%s: %v", truth.Name(), err)
		}
		ok := false
		for _, fam := range equivalent[truth.Name()] {
			if best.Family == fam {
				ok = true
			}
		}
		if !ok {
			t.Errorf("true family %s: selected %s (KS=%.4f)", truth.Name(), best.Family, best.KS)
		}
		if best.KS > 0.05 {
			t.Errorf("%s: winning KS %.4f too large", truth.Name(), best.KS)
		}
	}
}

// failingFitter is a candidate that never fits, for the ranking test.
type failingFitter struct{}

func (failingFitter) FamilyName() string { return "failing" }

func (failingFitter) Fit(*Sample) (Distribution, error) {
	return nil, errors.New("failing: never fits")
}

func TestFitAllRanksErrorsLast(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	// The failing candidates come first so the ranking has to move them.
	fitters := []Fitter{failingFitter{}, ParetoFitter{}, failingFitter{}, ExponentialFitter{}}
	results := FitAll(NewSample(data), fitters, 0)
	if len(results) != len(fitters) {
		t.Fatalf("len = %d", len(results))
	}
	for i, r := range results[:2] {
		if r.Err != nil {
			t.Errorf("rank %d: fitted family ranked after a failure: %+v", i, r)
		}
	}
	if results[0].KS > results[1].KS {
		t.Errorf("fitted families out of KS order: %v > %v", results[0].KS, results[1].KS)
	}
	for i, r := range results[2:] {
		if r.Err == nil || r.Family != "failing" || r.Dist != nil {
			t.Errorf("rank %d: want the failing candidate with its error, got %+v", i+2, r)
		}
		if !math.IsInf(r.KS, 1) || !math.IsInf(r.AIC, 1) || !math.IsInf(r.LogL, -1) {
			t.Errorf("rank %d: failed fit carries finite statistics: %+v", i+2, r)
		}
	}
}

func TestKSStatisticProperties(t *testing.T) {
	e, _ := NewExponential(1)
	if !math.IsNaN(NewSample(nil).KSStatistic(e)) {
		t.Error("KS of empty sample should be NaN")
	}
	// Perfectly wrong model: all mass below support.
	p, _ := NewPareto(100, 2)
	small := NewSample([]float64{1, 2, 3})
	if ks := small.KSStatistic(p); ks < 0.99 {
		t.Errorf("KS against disjoint support = %v, want ≈1", ks)
	}
	// KS is in [0,1].
	data := NewSample(sampleFrom(e, 100, 11))
	if ks := data.KSStatistic(e); ks < 0 || ks > 1 {
		t.Errorf("KS out of range: %v", ks)
	}
}

func TestAICBICOrdering(t *testing.T) {
	truth, _ := NewWeibull(0.6, 10)
	data := NewSample(sampleFrom(truth, 5000, 21))
	byFamily := map[string]FitResult{}
	for _, r := range FitAll(data, []Fitter{WeibullFitter{}, ExponentialFitter{}}, 1) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		byFamily[r.Family] = r
	}
	w, e := byFamily["weibull"], byFamily["exponential"]
	if w.AIC >= e.AIC {
		t.Error("true Weibull family should beat exponential by AIC")
	}
	if w.BIC >= e.BIC {
		t.Error("true Weibull family should beat exponential by BIC")
	}
	// The criteria are the textbook forms over the reported likelihood.
	for _, r := range []FitResult{w, e} {
		k, n := float64(r.Dist.NumParams()), float64(data.N())
		if r.AIC != 2*k-2*r.LogL || r.BIC != k*math.Log(n)-2*r.LogL {
			t.Errorf("%s: AIC %v / BIC %v disagree with LogL %v", r.Family, r.AIC, r.BIC, r.LogL)
		}
	}
}

func TestParamString(t *testing.T) {
	for _, d := range []Distribution{
		mustAny(NewExponential(1)), mustAny(NewWeibull(1, 2)), mustAny(NewPareto(1, 2)),
		mustAny(NewLogNormal(0, 1)), mustAny(NewGamma(1, 1)), mustAny(NewErlang(2, 1)),
		mustAny(NewInverseGaussian(1, 1)),
	} {
		if s := ParamString(d); s == "" || s == "<nil>" {
			t.Errorf("%s: empty param string", d.Name())
		}
	}
	if ParamString(nil) != "<nil>" {
		t.Error("nil should format as <nil>")
	}
}

func mustAny[D Distribution](d D, err error) Distribution {
	if err != nil {
		panic(err)
	}
	return d
}

func TestADStatistic(t *testing.T) {
	e, _ := NewExponential(0.5)
	if _, ad := gof(NewSample(nil), e); !math.IsNaN(ad) {
		t.Error("empty AD should be NaN")
	}
	data := NewSample(sampleFrom(e, 5000, 51))
	_, ad := gof(data, e)
	// Under the true model A² concentrates near its asymptotic mean 1; the
	// 1% critical value is ≈3.9.
	if ad < 0 || ad > 3.9 {
		t.Errorf("AD under true model = %v", ad)
	}
	// A wrong model has a much larger A².
	wrong, _ := NewExponential(2.5)
	if _, adWrong := gof(data, wrong); adWrong < 10*ad {
		t.Errorf("AD should expose the wrong rate: %v vs %v", adWrong, ad)
	}
	// Support violation: point below Pareto xm → +Inf.
	p, _ := NewPareto(10, 2)
	if _, ad := gof(NewSample([]float64{5, 20}), p); !math.IsInf(ad, 1) {
		t.Error("out-of-support AD should be +Inf")
	}
}

func TestFitAllReportsAD(t *testing.T) {
	truth, _ := NewWeibull(0.62, 2100)
	data := sampleFrom(truth, 4000, 52)
	results := FitAll(NewSample(data), nil, 0)
	if results[0].Family != "weibull" {
		t.Fatalf("winner %s", results[0].Family)
	}
	if math.IsNaN(results[0].AD) || results[0].AD > 4 {
		t.Errorf("winner AD = %v", results[0].AD)
	}
	// The AD of the winner is below that of a mismatched family.
	for _, r := range results {
		if r.Err == nil && r.Family == "pareto" && r.AD < results[0].AD {
			t.Errorf("pareto AD %v below weibull AD %v", r.AD, results[0].AD)
		}
	}
}
