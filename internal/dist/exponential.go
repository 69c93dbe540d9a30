package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Exponential is the exponential distribution with rate λ > 0
// (mean 1/λ), the memoryless baseline for interruption intervals.
type Exponential struct {
	Rate float64
}

var _ Distribution = Exponential{}

// NewExponential returns an exponential distribution with the given rate.
func NewExponential(rate float64) (Exponential, error) {
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return Exponential{}, fmt.Errorf("dist: exponential rate %v must be positive and finite", rate)
	}
	return Exponential{Rate: rate}, nil
}

// Name implements Distribution.
func (Exponential) Name() string { return "exponential" }

// NumParams implements Distribution.
func (Exponential) NumParams() int { return 1 }

// PDF implements Distribution.
func (e Exponential) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	return e.Rate * math.Exp(-e.Rate*x)
}

// LogPDF implements Distribution.
func (e Exponential) LogPDF(x float64) float64 {
	if x < 0 {
		return math.Inf(-1)
	}
	return math.Log(e.Rate) - e.Rate*x
}

// CDF implements Distribution.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

// Quantile implements Distribution.
func (e Exponential) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	default:
		return -math.Log1p(-p) / e.Rate
	}
}

// Mean implements Distribution.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Var implements Distribution.
func (e Exponential) Var() float64 { return 1 / (e.Rate * e.Rate) }

// Rand implements Distribution.
func (e Exponential) Rand(rng *rand.Rand) float64 { return rng.ExpFloat64() / e.Rate }

// ExponentialFitter estimates an exponential law by MLE (λ̂ = 1/mean).
type ExponentialFitter struct{}

var _ Fitter = ExponentialFitter{}

// FamilyName implements Fitter.
func (ExponentialFitter) FamilyName() string { return "exponential" }

// Fit implements Fitter: the MLE is closed-form in the cached mean, so
// the fit touches no data.
func (ExponentialFitter) Fit(s *Sample) (Distribution, error) {
	_, mean, _, err := s.moments(true)
	if err != nil {
		return nil, fmt.Errorf("fit exponential: %w", err)
	}
	return NewExponential(1 / mean)
}
