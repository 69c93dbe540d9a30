package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// allDistributions returns one parameterized instance per family for generic
// consistency tests.
func allDistributions(t *testing.T) []Distribution {
	t.Helper()
	exp, err := NewExponential(0.5)
	if err != nil {
		t.Fatal(err)
	}
	wei, err := NewWeibull(0.7, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	wei2, err := NewWeibull(2.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewPareto(1.5, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := NewLogNormal(1.0, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	gam, err := NewGamma(3.2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	erl, err := NewErlang(4, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	ig, err := NewInverseGaussian(2.0, 6.0)
	if err != nil {
		t.Fatal(err)
	}
	return []Distribution{exp, wei, wei2, par, ln, gam, erl, ig}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewExponential(0); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewExponential(math.NaN()); err == nil {
		t.Error("NaN rate should fail")
	}
	if _, err := NewWeibull(-1, 1); err == nil {
		t.Error("negative shape should fail")
	}
	if _, err := NewPareto(1, 0); err == nil {
		t.Error("zero alpha should fail")
	}
	if _, err := NewLogNormal(0, -0.1); err == nil {
		t.Error("negative sigma should fail")
	}
	if _, err := NewGamma(0, 1); err == nil {
		t.Error("zero shape should fail")
	}
	if _, err := NewErlang(0, 1); err == nil {
		t.Error("zero erlang k should fail")
	}
	if _, err := NewInverseGaussian(1, math.NaN()); err == nil {
		t.Error("NaN lambda should fail")
	}
}

// TestCDFQuantileInverse checks Quantile(CDF(x)) ≈ x and CDF(Quantile(p)) ≈ p
// across the support of every family.
func TestCDFQuantileInverse(t *testing.T) {
	for _, d := range allDistributions(t) {
		for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
			x := d.Quantile(p)
			got := d.CDF(x)
			if math.Abs(got-p) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%v)) = %v", d.Name(), p, got)
			}
		}
	}
}

// TestCDFMonotone checks each CDF is non-decreasing and bounded by [0,1].
func TestCDFMonotone(t *testing.T) {
	for _, d := range allDistributions(t) {
		lo, hi := d.Quantile(0.001), d.Quantile(0.999)
		if math.IsInf(lo, 0) {
			lo = -10
		}
		prev := -1.0
		for i := 0; i <= 200; i++ {
			x := lo + (hi-lo)*float64(i)/200
			v := d.CDF(x)
			if v < prev-1e-12 {
				t.Fatalf("%s: CDF not monotone at %v", d.Name(), x)
			}
			if v < 0 || v > 1 {
				t.Fatalf("%s: CDF(%v)=%v out of [0,1]", d.Name(), x, v)
			}
			prev = v
		}
	}
}

// TestPDFIntegratesToCDF checks ∫ PDF ≈ ΔCDF by trapezoid rule on a central
// interval of every family.
func TestPDFIntegratesToCDF(t *testing.T) {
	for _, d := range allDistributions(t) {
		a, b := d.Quantile(0.2), d.Quantile(0.8)
		const n = 20000
		h := (b - a) / n
		sum := (d.PDF(a) + d.PDF(b)) / 2
		for i := 1; i < n; i++ {
			sum += d.PDF(a + float64(i)*h)
		}
		got := sum * h
		want := d.CDF(b) - d.CDF(a)
		if math.Abs(got-want) > 1e-3 {
			t.Errorf("%s: ∫pdf=%v, ΔCDF=%v", d.Name(), got, want)
		}
	}
}

// TestLogPDFConsistent checks LogPDF = ln(PDF) where PDF > 0.
func TestLogPDFConsistent(t *testing.T) {
	for _, d := range allDistributions(t) {
		for _, p := range []float64{0.05, 0.3, 0.5, 0.7, 0.95} {
			x := d.Quantile(p)
			pdf := d.PDF(x)
			if pdf <= 0 {
				continue
			}
			if got, want := d.LogPDF(x), math.Log(pdf); math.Abs(got-want) > 1e-8*math.Max(1, math.Abs(want)) {
				t.Errorf("%s: LogPDF(%v)=%v, ln PDF=%v", d.Name(), x, got, want)
			}
		}
	}
}

// TestSampleMomentsMatch draws a large sample from each family and compares
// empirical mean/variance to the analytic values.
func TestSampleMomentsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	for _, d := range allDistributions(t) {
		if math.IsInf(d.Mean(), 0) || math.IsInf(d.Var(), 0) {
			continue // Pareto with small alpha etc.
		}
		sum, sum2 := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := d.Rand(rng)
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		tol := 4 * math.Sqrt(d.Var()/n) * 3 // generous CLT band
		if math.Abs(mean-d.Mean()) > math.Max(tol, 0.02*math.Abs(d.Mean())+1e-3) {
			t.Errorf("%s: sample mean %v, want %v", d.Name(), mean, d.Mean())
		}
		// Sample variance needs a finite 4th moment to converge at CLT
		// rate; Pareto with α < 4 does not have one, so skip it there.
		if p, isPareto := d.(Pareto); isPareto && p.Alpha < 4 {
			continue
		}
		if math.Abs(variance-d.Var()) > 0.1*d.Var()+1e-3 {
			t.Errorf("%s: sample var %v, want %v", d.Name(), variance, d.Var())
		}
	}
}

// TestSamplesPassKS draws from each family and checks the KS statistic
// against the true law is small (sanity of both Rand and CDF).
func TestSamplesPassKS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 5000
	for _, d := range allDistributions(t) {
		data := make([]float64, n)
		for i := range data {
			data[i] = d.Rand(rng)
		}
		ks := NewSample(data).KSStatistic(d)
		// 1% critical value ≈ 1.63/√n ≈ 0.023.
		if ks > 1.63/math.Sqrt(n) {
			t.Errorf("%s: KS=%v too large for its own sample", d.Name(), ks)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	for _, d := range allDistributions(t) {
		if q := d.Quantile(1); !math.IsInf(q, 1) {
			t.Errorf("%s: Quantile(1)=%v, want +Inf", d.Name(), q)
		}
		q0 := d.Quantile(0)
		if math.IsNaN(q0) {
			t.Errorf("%s: Quantile(0)=NaN", d.Name())
		}
	}
}

func TestQuantilePropertyMonotone(t *testing.T) {
	dists := allDistributions(t)
	f := func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		if pa == 0 || pb >= 1 || pa == pb {
			return true
		}
		for _, d := range dists {
			if d.Quantile(pa) > d.Quantile(pb)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestErlangMatchesGamma(t *testing.T) {
	e, _ := NewErlang(3, 1.5)
	g, _ := NewGamma(3, 1.5)
	for _, x := range []float64{0.1, 1, 2, 5, 10} {
		if !almostEqual(e.PDF(x), g.PDF(x), 1e-12) {
			t.Errorf("erlang/gamma PDF mismatch at %v", x)
		}
		if !almostEqual(e.CDF(x), g.CDF(x), 1e-12) {
			t.Errorf("erlang/gamma CDF mismatch at %v", x)
		}
	}
}

func TestErlangK1IsExponential(t *testing.T) {
	e, _ := NewErlang(1, 0.25)
	x, _ := NewExponential(0.25)
	for _, v := range []float64{0.5, 2, 8, 20} {
		if !almostEqual(e.CDF(v), x.CDF(v), 1e-12) {
			t.Errorf("Erlang(1) != Exp at %v", v)
		}
	}
}

func TestSupportBoundaries(t *testing.T) {
	w, _ := NewWeibull(0.7, 1)
	if w.PDF(-1) != 0 || w.CDF(-1) != 0 {
		t.Error("weibull support violation")
	}
	if !math.IsInf(w.PDF(0), 1) {
		t.Error("weibull shape<1 PDF(0) should be +Inf")
	}
	p, _ := NewPareto(2, 1)
	if p.PDF(1.9) != 0 || p.CDF(2) != 0 {
		t.Error("pareto support violation")
	}
	if !math.IsInf(p.Mean(), 1) {
		t.Error("pareto alpha≤1 mean should be +Inf")
	}
	g, _ := NewGamma(2, 1)
	if g.PDF(0) != 0 {
		t.Error("gamma shape>1 PDF(0) should be 0")
	}
	g1, _ := NewGamma(1, 3)
	if g1.PDF(0) != 3 {
		t.Errorf("gamma shape=1 PDF(0) = %v, want rate", g1.PDF(0))
	}
}
