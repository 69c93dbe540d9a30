package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Weibull is the Weibull distribution with shape k > 0 and scale λ > 0.
// Shape k < 1 models the "infant mortality" pattern of jobs that crash
// early — the paper's best fit for several user-error exit codes.
type Weibull struct {
	Shape float64 // k
	Scale float64 // λ
}

var _ Distribution = Weibull{}

// NewWeibull returns a Weibull distribution with the given shape and scale.
func NewWeibull(shape, scale float64) (Weibull, error) {
	if shape <= 0 || scale <= 0 || math.IsNaN(shape) || math.IsNaN(scale) {
		return Weibull{}, fmt.Errorf("dist: weibull shape %v / scale %v must be positive", shape, scale)
	}
	return Weibull{Shape: shape, Scale: scale}, nil
}

// Name implements Distribution.
func (Weibull) Name() string { return "weibull" }

// NumParams implements Distribution.
func (Weibull) NumParams() int { return 2 }

// PDF implements Distribution.
func (w Weibull) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		if w.Shape < 1 {
			return math.Inf(1)
		}
		if w.Shape == 1 {
			return 1 / w.Scale
		}
		return 0
	}
	z := x / w.Scale
	return w.Shape / w.Scale * math.Pow(z, w.Shape-1) * math.Exp(-math.Pow(z, w.Shape))
}

// LogPDF implements Distribution.
func (w Weibull) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	z := x / w.Scale
	return math.Log(w.Shape/w.Scale) + (w.Shape-1)*math.Log(z) - math.Pow(z, w.Shape)
}

// CDF implements Distribution.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(x/w.Scale, w.Shape))
}

// Quantile implements Distribution.
func (w Weibull) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	default:
		return w.Scale * math.Pow(-math.Log1p(-p), 1/w.Shape)
	}
}

// Mean implements Distribution.
func (w Weibull) Mean() float64 {
	return w.Scale * math.Exp(lnGamma(1+1/w.Shape))
}

// Var implements Distribution.
func (w Weibull) Var() float64 {
	g1 := math.Exp(lnGamma(1 + 1/w.Shape))
	g2 := math.Exp(lnGamma(1 + 2/w.Shape))
	return w.Scale * w.Scale * (g2 - g1*g1)
}

// Rand implements Distribution.
func (w Weibull) Rand(rng *rand.Rand) float64 {
	// Inverse transform on an Exp(1) variate: X = λ E^{1/k}.
	return w.Scale * math.Pow(rng.ExpFloat64(), 1/w.Shape)
}

// WeibullFitter estimates Weibull parameters by maximum likelihood. The
// profile-likelihood equation for the shape,
//
//	g(k) = Σ x_i^k ln x_i / Σ x_i^k − 1/k − mean(ln x) = 0,
//
// is solved by Newton–Raphson with a bisection fallback; the scale then has
// the closed form λ̂ = (Σ x_i^k / n)^{1/k}.
type WeibullFitter struct{}

var _ Fitter = WeibullFitter{}

// FamilyName implements Fitter.
func (WeibullFitter) FamilyName() string { return "weibull" }

// Fit implements Fitter. The shape equation still needs Σx^k
// per iteration (it is not linear in the sufficient statistics), but the
// Sample engine cuts the cost three ways: ln x is computed once and reused
// so each x^k is one Exp instead of a Pow, the derivative g′ is analytic
// (g, g′ share a single data pass where the numeric derivative needed
// three), and mean/variance/mean-log come from the cached statistics.
func (WeibullFitter) Fit(s *Sample) (Distribution, error) {
	n, mean, variance, err := s.moments(true)
	if err != nil {
		return nil, fmt.Errorf("fit weibull: %w", err)
	}
	meanLog := s.MeanLog()
	logs := make([]float64, n)
	for i, x := range s.Sorted() {
		logs[i] = math.Log(x)
	}

	// Moment-based starting point: CV relates to shape via
	// CV² = Γ(1+2/k)/Γ(1+1/k)² − 1; the crude inversion k ≈ (mean/sd)^1.086
	// (Justus 1978) is good enough to seed Newton.
	k := 1.0
	if variance > 0 {
		k = math.Pow(mean/math.Sqrt(variance), 1.086)
	}
	if k <= 0.02 || math.IsNaN(k) {
		k = 0.5
	}

	// One pass evaluates g(k) = Σx^k ln x / Σx^k − 1/k − mean(ln x) and its
	// analytic derivative g′(k) = Var-like term + 1/k², with x^k = e^{k·ln x}.
	gAndDeriv := func(k float64) (g, dg float64) {
		var sxk, sxkl, sxkl2 float64
		for _, lx := range logs {
			xk := math.Exp(k * lx)
			xkl := xk * lx
			sxk += xk
			sxkl += xkl
			sxkl2 += xkl * lx
		}
		r := sxkl / sxk
		return r - 1/k - meanLog, sxkl2/sxk - r*r + 1/(k*k)
	}
	g := func(k float64) float64 {
		var sxk, sxkl float64
		for _, lx := range logs {
			xk := math.Exp(k * lx)
			sxk += xk
			sxkl += xk * lx
		}
		return sxkl/sxk - 1/k - meanLog
	}

	const tol = 1e-10
	converged := false
	for iter := 0; iter < 100; iter++ {
		gk, dg := gAndDeriv(k)
		if math.Abs(gk) < tol {
			converged = true
			break
		}
		if dg == 0 || math.IsNaN(dg) {
			break
		}
		next := k - gk/dg
		if next <= 0 {
			next = k / 2
		}
		if math.Abs(next-k) < tol*math.Max(1, k) {
			k = next
			converged = true
			break
		}
		k = next
	}
	if !converged {
		// Bisection fallback: g is increasing in k for positive samples.
		lo, hi := 1e-3, 100.0
		if g(lo) > 0 || g(hi) < 0 {
			return nil, fmt.Errorf("fit weibull: shape equation has no root in [%g,%g]", lo, hi)
		}
		for iter := 0; iter < 200; iter++ {
			k = (lo + hi) / 2
			if g(k) > 0 {
				hi = k
			} else {
				lo = k
			}
			if hi-lo < tol {
				break
			}
		}
	}

	sxk := 0.0
	for _, lx := range logs {
		sxk += math.Exp(k * lx)
	}
	scale := math.Pow(sxk/float64(n), 1/k)
	return NewWeibull(k, scale)
}
