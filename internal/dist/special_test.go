package dist

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestDigamma(t *testing.T) {
	const gammaEuler = 0.5772156649015329
	tests := []struct {
		x, want float64
	}{
		{1, -gammaEuler},
		{2, 1 - gammaEuler},
		{0.5, -gammaEuler - 2*math.Ln2},
		{10, 2.251752589066721},
		{100, 4.600161852738087},
	}
	for _, tt := range tests {
		if got := digamma(tt.x); !almostEqual(got, tt.want, 1e-10) {
			t.Errorf("digamma(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	// Recurrence property: ψ(x+1) = ψ(x) + 1/x.
	for _, x := range []float64{0.3, 1.7, 5.2, 42} {
		if got, want := digamma(x+1), digamma(x)+1/x; !almostEqual(got, want, 1e-10) {
			t.Errorf("digamma recurrence at %v: %v vs %v", x, got, want)
		}
	}
	if !math.IsNaN(digamma(0)) || !math.IsNaN(digamma(-3)) {
		t.Error("digamma at non-positive integers should be NaN")
	}
}

func TestTrigamma(t *testing.T) {
	tests := []struct {
		x, want float64
	}{
		{1, math.Pi * math.Pi / 6},
		{0.5, math.Pi * math.Pi / 2},
		{2, math.Pi*math.Pi/6 - 1},
	}
	for _, tt := range tests {
		if got := trigamma(tt.x); !almostEqual(got, tt.want, 1e-8) {
			t.Errorf("trigamma(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	// Recurrence: ψ′(x+1) = ψ′(x) − 1/x².
	for _, x := range []float64{0.4, 2.5, 9} {
		if got, want := trigamma(x+1), trigamma(x)-1/(x*x); !almostEqual(got, want, 1e-8) {
			t.Errorf("trigamma recurrence at %v: %v vs %v", x, got, want)
		}
	}
}

func TestRegIncGamma(t *testing.T) {
	// P(1, x) = 1 − e^{−x}.
	for _, x := range []float64{0.1, 1, 2.5, 10} {
		want := 1 - math.Exp(-x)
		if got := regIncGammaLower(1, x); !almostEqual(got, want, 1e-12) {
			t.Errorf("P(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(a,0) = 0, P(a,∞) → 1.
	if got := regIncGammaLower(3.3, 0); got != 0 {
		t.Errorf("P(a,0) = %v", got)
	}
	if got := regIncGammaLower(3.3, 1e6); !almostEqual(got, 1, 1e-12) {
		t.Errorf("P(a,huge) = %v", got)
	}
	// P(0.5, x) = erf(√x).
	for _, x := range []float64{0.3, 1.2, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := regIncGammaLower(0.5, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("P(0.5,%v) = %v, want %v", x, got, want)
		}
	}
	if !math.IsNaN(regIncGammaLower(-1, 2)) {
		t.Error("P with non-positive a should be NaN")
	}
}

func TestKolmogorovCDF(t *testing.T) {
	// Known values of the Kolmogorov distribution.
	tests := []struct {
		x, want float64
	}{
		{0.5, 0.036055},
		{1.0, 0.730000}, // K(1) ≈ 0.7300
		{1.36, 0.950515},
		{1.63, 0.990034},
	}
	for _, tt := range tests {
		if got := kolmogorovCDF(tt.x); math.Abs(got-tt.want) > 5e-4 {
			t.Errorf("K(%v) = %v, want ≈%v", tt.x, got, tt.want)
		}
	}
	if kolmogorovCDF(0) != 0 || kolmogorovCDF(-1) != 0 {
		t.Error("K(x≤0) should be 0")
	}
	if kolmogorovCDF(10) != 1 {
		t.Error("K(10) should be 1")
	}
	// Monotonicity.
	prev := -1.0
	for x := 0.05; x < 3; x += 0.05 {
		v := kolmogorovCDF(x)
		if v < prev-1e-12 {
			t.Fatalf("K not monotone at %v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestKolmogorovPValue(t *testing.T) {
	// At the 5% critical value D ≈ 1.358/√n the p-value should be near 0.05.
	n := 1000
	d := 1.358 / math.Sqrt(float64(n))
	p := KolmogorovPValue(d, n)
	if math.Abs(p-0.05) > 0.01 {
		t.Errorf("p-value at critical D = %v, want ≈0.05", p)
	}
	if p := KolmogorovPValue(0.001, n); p < 0.99 {
		t.Errorf("tiny D should give p≈1, got %v", p)
	}
	if p := KolmogorovPValue(0.5, n); p > 1e-6 {
		t.Errorf("huge D should give p≈0, got %v", p)
	}
	if !math.IsNaN(KolmogorovPValue(0.1, 0)) {
		t.Error("n=0 should give NaN")
	}
}

func TestErfInv(t *testing.T) {
	for _, x := range []float64{-0.999, -0.7, -0.2, 0, 0.1, 0.5, 0.9, 0.9999} {
		y := erfInv(x)
		if got := math.Erf(y); math.Abs(got-x) > 1e-10 {
			t.Errorf("erf(erfInv(%v)) = %v", x, got)
		}
	}
	if !math.IsInf(erfInv(1), 1) || !math.IsInf(erfInv(-1), -1) {
		t.Error("erfInv at ±1 should be ±Inf")
	}
}
