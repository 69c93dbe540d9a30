package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// InverseGaussian is the inverse Gaussian (Wald) distribution with mean
// μ > 0 and shape λ > 0 — the first-passage-time law of Brownian motion
// with drift, and one of the paper's best-fit families for failed-job
// execution lengths (notably walltime-style terminations that cluster
// around a typical duration with a sharp left flank).
type InverseGaussian struct {
	Mu     float64 // μ
	Lambda float64 // λ
}

var _ Distribution = InverseGaussian{}

// NewInverseGaussian returns an inverse Gaussian distribution with the given
// mean and shape.
func NewInverseGaussian(mu, lambda float64) (InverseGaussian, error) {
	if mu <= 0 || lambda <= 0 || math.IsNaN(mu) || math.IsNaN(lambda) {
		return InverseGaussian{}, fmt.Errorf("dist: inverse gaussian mu %v / lambda %v must be positive", mu, lambda)
	}
	return InverseGaussian{Mu: mu, Lambda: lambda}, nil
}

// Name implements Distribution.
func (InverseGaussian) Name() string { return "inverse-gaussian" }

// NumParams implements Distribution.
func (InverseGaussian) NumParams() int { return 2 }

// PDF implements Distribution.
func (ig InverseGaussian) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Exp(ig.LogPDF(x))
}

// LogPDF implements Distribution.
func (ig InverseGaussian) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	d := x - ig.Mu
	return 0.5*math.Log(ig.Lambda/(2*math.Pi*x*x*x)) - ig.Lambda*d*d/(2*ig.Mu*ig.Mu*x)
}

// CDF implements Distribution, using the standard Φ-based closed form.
func (ig InverseGaussian) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	sq := math.Sqrt(ig.Lambda / x)
	phi := func(z float64) float64 { return 0.5 * (1 + math.Erf(z/math.Sqrt2)) }
	v := phi(sq*(x/ig.Mu-1)) + math.Exp(2*ig.Lambda/ig.Mu)*phi(-sq*(x/ig.Mu+1))
	return math.Min(1, math.Max(0, v))
}

// Quantile implements Distribution, by bisection on the CDF.
func (ig InverseGaussian) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	hi := ig.Mu
	for ig.CDF(hi) < p {
		hi *= 2
		if hi > 1e300 {
			return math.Inf(1)
		}
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if ig.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*math.Max(1, hi) {
			break
		}
	}
	return (lo + hi) / 2
}

// Mean implements Distribution.
func (ig InverseGaussian) Mean() float64 { return ig.Mu }

// Var implements Distribution.
func (ig InverseGaussian) Var() float64 { return ig.Mu * ig.Mu * ig.Mu / ig.Lambda }

// Rand implements Distribution using the Michael–Schucany–Haas
// transformation-with-rejection method.
func (ig InverseGaussian) Rand(rng *rand.Rand) float64 {
	nu := rng.NormFloat64()
	y := nu * nu
	mu, lam := ig.Mu, ig.Lambda
	x := mu + mu*mu*y/(2*lam) - mu/(2*lam)*math.Sqrt(4*mu*lam*y+mu*mu*y*y)
	if rng.Float64() <= mu/(mu+x) {
		return x
	}
	return mu * mu / x
}

// InverseGaussianFitter estimates the inverse Gaussian law by its closed-form
// MLE: μ̂ = mean, 1/λ̂ = mean(1/x − 1/μ̂).
type InverseGaussianFitter struct{}

var _ Fitter = InverseGaussianFitter{}

// FamilyName implements Fitter.
func (InverseGaussianFitter) FamilyName() string { return "inverse-gaussian" }

// Fit implements Fitter: Σ(1/x − 1/μ̂) = Σ1/x − n/μ̂, so both
// parameters are closed-form in the cached mean and reciprocal sum.
func (InverseGaussianFitter) Fit(s *Sample) (Distribution, error) {
	n, mean, _, err := s.moments(true)
	if err != nil {
		return nil, fmt.Errorf("fit inverse-gaussian: %w", err)
	}
	recip := s.SumInv() - float64(n)/mean
	if recip <= 0 {
		return nil, fmt.Errorf("fit inverse-gaussian: degenerate sample (all values equal)")
	}
	return NewInverseGaussian(mean, float64(n)/recip)
}
