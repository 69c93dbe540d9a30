package dist

import (
	"math"
	"math/rand"
	"testing"
)

// censoredSample draws Weibull lifetimes censored by an independent
// exponential clock.
func censoredSample(t *testing.T, shape, scale float64, n int, seed int64) ([]CensoredObservation, float64) {
	t.Helper()
	truth, err := NewWeibull(shape, scale)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	censorMean := truth.Mean() * 1.5
	obs := make([]CensoredObservation, n)
	censored := 0
	for i := range obs {
		life := truth.Rand(rng)
		clock := rng.ExpFloat64() * censorMean
		if life <= clock {
			obs[i] = CensoredObservation{Time: life, Observed: true}
		} else {
			obs[i] = CensoredObservation{Time: clock, Observed: false}
			censored++
		}
	}
	return obs, float64(censored) / float64(n)
}

func TestFitCensoredWeibullRecovers(t *testing.T) {
	for _, tc := range []struct{ shape, scale float64 }{
		{0.62, 2100}, // infant mortality (the job-failure regime)
		{1.8, 500},   // increasing hazard
	} {
		obs, censFrac := censoredSample(t, tc.shape, tc.scale, 30000, 17)
		if censFrac < 0.1 {
			t.Fatalf("censoring too light (%v) to exercise the fit", censFrac)
		}
		w, err := FitCensoredWeibull(obs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.Shape-tc.shape)/tc.shape > 0.05 {
			t.Errorf("shape = %v, want %v (censored %v)", w.Shape, tc.shape, censFrac)
		}
		if math.Abs(w.Scale-tc.scale)/tc.scale > 0.06 {
			t.Errorf("scale = %v, want %v", w.Scale, tc.scale)
		}
	}
}

// TestNaiveFitIsBiasedCensoredIsNot is the methodological point: fitting
// only the observed events overestimates early failure (censoring removes
// long lifetimes), while the censored MLE stays unbiased.
func TestNaiveFitIsBiasedCensoredIsNot(t *testing.T) {
	const shape, scale = 1.0, 1000.0
	obs, _ := censoredSample(t, shape, scale, 30000, 23)
	var observedOnly []float64
	for _, o := range obs {
		if o.Observed {
			observedOnly = append(observedOnly, o.Time)
		}
	}
	naive, err := (WeibullFitter{}).Fit(NewSample(observedOnly))
	if err != nil {
		t.Fatal(err)
	}
	censoredFit, err := FitCensoredWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	naiveErr := math.Abs(naive.(Weibull).Scale - scale)
	censErr := math.Abs(censoredFit.Scale - scale)
	if naiveErr < 2*censErr {
		t.Errorf("naive scale error %v not clearly worse than censored %v", naiveErr, censErr)
	}
	if censErr/scale > 0.05 {
		t.Errorf("censored scale error %v too large", censErr/scale)
	}
}

func TestFitCensoredWeibullErrors(t *testing.T) {
	if _, err := FitCensoredWeibull(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := FitCensoredWeibull([]CensoredObservation{{1, true}, {-1, true}}); err == nil {
		t.Error("negative time accepted")
	}
	allCensored := []CensoredObservation{{1, false}, {2, false}, {3, false}}
	if _, err := FitCensoredWeibull(allCensored); err == nil {
		t.Error("all-censored accepted")
	}
	if _, err := FitCensoredWeibull([]CensoredObservation{{5, true}}); err == nil {
		t.Error("single point accepted")
	}
}

// censoredLogLikelihood evaluates the right-censored log-likelihood of d
// on the observations: the reference the censored MLE must maximise.
func censoredLogLikelihood(d Distribution, obs []CensoredObservation) float64 {
	ll := 0.0
	for _, o := range obs {
		if o.Observed {
			ll += d.LogPDF(o.Time)
		} else {
			s := 1 - d.CDF(o.Time)
			if s <= 0 {
				return math.Inf(-1)
			}
			ll += math.Log(s)
		}
	}
	return ll
}

func TestCensoredLogLikelihood(t *testing.T) {
	w, _ := NewWeibull(1, 100) // exponential(1/100)
	obs := []CensoredObservation{
		{Time: 50, Observed: true},
		{Time: 200, Observed: false},
	}
	// ln f(50) = ln(1/100) − 0.5; ln S(200) = −2.
	want := math.Log(1.0/100) - 0.5 - 2
	if got := censoredLogLikelihood(w, obs); math.Abs(got-want) > 1e-9 {
		t.Errorf("censored logL = %v, want %v", got, want)
	}
	// The MLE should beat a wrong parameterization in censored likelihood.
	obs2, _ := censoredSample(t, 0.7, 300, 5000, 31)
	fit, err := FitCensoredWeibull(obs2)
	if err != nil {
		t.Fatal(err)
	}
	wrong, _ := NewWeibull(2.0, 300)
	if censoredLogLikelihood(fit, obs2) <= censoredLogLikelihood(wrong, obs2) {
		t.Error("MLE not beating a wrong model in censored likelihood")
	}
}
