package core

import (
	"testing"

	"repro/internal/joblog"
	"repro/internal/sim"
)

func TestFitExecutionLengths(t *testing.T) {
	d, _ := dataset(t)
	fits, err := d.FitExecutionLengths(FitOptions{MinSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) < 5 {
		t.Fatalf("only %d families fitted", len(fits))
	}
	laws := sim.DurationLaws()
	// Families the injection makes unambiguous. Exponential may be matched
	// by erlang(k=1)/gamma/weibull(k≈1), which are the same law.
	equivalent := map[string][]string{
		"weibull":          {"weibull"},
		"pareto":           {"pareto"},
		"inverse-gaussian": {"inverse-gaussian", "lognormal"},
		"exponential":      {"exponential", "erlang", "gamma", "weibull"},
		"erlang":           {"erlang", "gamma", "weibull"},
		"lognormal":        {"lognormal", "inverse-gaussian"},
	}
	for _, f := range fits {
		if f.Best().Err != nil {
			t.Errorf("family %s: best fit has error %v", f.Family, f.Best().Err)
			continue
		}
		truth, ok := laws[f.Family]
		if !ok {
			continue // "system" family has no injected user law
		}
		want := equivalent[truth.Name()]
		if f.N < 2000 {
			// Small samples cannot reliably separate light-tailed unimodal
			// families; accept the near-equivalent set.
			want = append(append([]string(nil), want...), "erlang", "gamma", "weibull")
		}
		found := false
		for _, w := range want {
			if f.Best().Family == w {
				found = true
			}
		}
		if !found {
			t.Errorf("family %s (injected %s, n=%d): selected %s (KS=%.4f)",
				f.Family, truth.Name(), f.N, f.Best().Family, f.Best().KS)
		}
		if f.Best().KS > 0.08 {
			t.Errorf("family %s: winning KS %.4f too large", f.Family, f.Best().KS)
		}
	}
}

func TestFitOptionsMinSamples(t *testing.T) {
	d, _ := dataset(t)
	fits, err := d.FitExecutionLengths(FitOptions{MinSamples: 1 << 30})
	if err == nil {
		t.Errorf("absurd MinSamples returned %d fits", len(fits))
	}
}

func TestFitMaxSamplesThinning(t *testing.T) {
	d, _ := dataset(t)
	full, err := d.FitExecutionLengths(FitOptions{MinSamples: 100})
	if err != nil {
		t.Fatal(err)
	}
	thinned, err := d.FitExecutionLengths(FitOptions{MinSamples: 100, MaxSamples: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(thinned) {
		t.Fatalf("family counts differ: %d vs %d", len(full), len(thinned))
	}
	for i := range thinned {
		if thinned[i].N > 500 {
			t.Errorf("family %s not thinned: n=%d", thinned[i].Family, thinned[i].N)
		}
	}
}

func TestThin(t *testing.T) {
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i)
	}
	out := Thin(data, 100)
	if len(out) != 100 {
		t.Fatalf("thin returned %d", len(out))
	}
	// Deterministic and order-preserving.
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			t.Fatal("thin not order-preserving")
		}
	}
}

func TestFamilyFitBestEmpty(t *testing.T) {
	var f FamilyFit
	if f.Best().Dist != nil {
		t.Error("empty FamilyFit should have nil best")
	}
}

func TestSystemFamilyPresent(t *testing.T) {
	// System-killed jobs' execution lengths are interruption-truncated;
	// the family exists in the classification even if not fitted.
	d, _ := dataset(t)
	cls := d.ClassifyByExit()
	if cls.ByFamily[joblog.FamilySystem] == 0 {
		t.Error("no system-family failures in classification")
	}
}
