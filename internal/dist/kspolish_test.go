package dist

import (
	"math"
	"testing"
)

func TestParamsRoundTrip(t *testing.T) {
	for _, d := range []Parametric{
		mustP(NewExponential(0.4)),
		mustP(NewWeibull(0.7, 3)),
		mustP(NewPareto(2, 1.5)),
		mustP(NewLogNormal(1, 0.5)),
		mustP(NewGamma(2.5, 0.3)),
		mustP(NewErlang(3, 2)),
		mustP(NewInverseGaussian(4, 9)),
	} {
		p := d.Params()
		back, err := d.WithParams(p)
		if err != nil {
			t.Fatalf("%s: WithParams(Params()): %v", d.Name(), err)
		}
		// Same law: CDF agrees at several quantiles.
		for _, q := range []float64{0.1, 0.5, 0.9} {
			x := d.Quantile(q)
			if math.Abs(back.CDF(x)-q) > 1e-9 {
				t.Errorf("%s: round-trip CDF mismatch at q=%v", d.Name(), q)
			}
		}
		// Wrong arity rejected.
		if _, err := d.WithParams(append(p, 1)); err == nil {
			t.Errorf("%s: extra parameter accepted", d.Name())
		}
		// Invalid values rejected.
		bad := append([]float64(nil), p...)
		bad[len(bad)-1] = -1
		if _, err := d.WithParams(bad); err == nil {
			t.Errorf("%s: negative parameter accepted", d.Name())
		}
	}
}

func mustP[D Parametric](d D, err error) Parametric {
	if err != nil {
		panic(err)
	}
	return d
}

func TestErlangWithParamsRoundsShape(t *testing.T) {
	e := mustP(NewErlang(3, 2))
	nd, err := e.WithParams([]float64{3.4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if nd.(Erlang).K != 3 {
		t.Errorf("K = %d, want 3", nd.(Erlang).K)
	}
	if _, err := e.WithParams([]float64{0.2, 2}); err == nil {
		t.Error("shape rounding to 0 accepted")
	}
}

func TestKSPolishImprovesOrMatchesMLE(t *testing.T) {
	truth, _ := NewWeibull(0.62, 2100)
	data := NewSample(sampleFrom(truth, 4000, 31))
	mle, err := (WeibullFitter{}).Fit(data)
	if err != nil {
		t.Fatal(err)
	}
	mleKS := data.KSStatistic(mle)
	polished, polishedKS, _, err := KSPolish(mle.(Parametric), data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if polishedKS > mleKS+1e-12 {
		t.Errorf("polish worsened KS: %v > %v", polishedKS, mleKS)
	}
	// The polished law is still close to the truth.
	w := polished.(Weibull)
	if math.Abs(w.Shape-0.62) > 0.1 || math.Abs(w.Scale-2100) > 300 {
		t.Errorf("polished params drifted: %+v", w)
	}
	// Reported KS matches an independent computation.
	if math.Abs(polishedKS-data.KSStatistic(polished)) > 1e-12 {
		t.Error("reported KS inconsistent")
	}
}

func TestKSPolishFromBadStart(t *testing.T) {
	// Start from deliberately wrong parameters: polish must recover most
	// of the gap to the true law.
	truth, _ := NewExponential(0.001)
	data := NewSample(sampleFrom(truth, 3000, 32))
	bad, _ := NewExponential(0.01) // 10x off
	badKS := data.KSStatistic(bad)
	_, polishedKS, _, err := KSPolish(bad, data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if polishedKS > badKS/5 {
		t.Errorf("polish stuck: %v (from %v)", polishedKS, badKS)
	}
	if polishedKS > 0.05 {
		t.Errorf("polished KS %v still large", polishedKS)
	}
}

func TestKSPolishEmptyData(t *testing.T) {
	e, _ := NewExponential(1)
	if _, _, _, err := KSPolish(e, NewSample(nil), 0); err == nil {
		t.Error("empty data accepted")
	}
}
