package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// LogNormal is the log-normal distribution: ln X ~ N(μ, σ²). A standard
// candidate family for job runtimes and a competitor in the paper's model
// selection.
type LogNormal struct {
	Mu    float64 // mean of ln X
	Sigma float64 // std dev of ln X, > 0
}

var _ Distribution = LogNormal{}

// NewLogNormal returns a log-normal distribution with the given log-scale
// parameters.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	if sigma <= 0 || math.IsNaN(mu) || math.IsNaN(sigma) {
		return LogNormal{}, fmt.Errorf("dist: lognormal sigma %v must be positive", sigma)
	}
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// Name implements Distribution.
func (LogNormal) Name() string { return "lognormal" }

// NumParams implements Distribution.
func (LogNormal) NumParams() int { return 2 }

// PDF implements Distribution.
func (l LogNormal) PDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return math.Exp(-z*z/2) / (x * l.Sigma * math.Sqrt(2*math.Pi))
}

// LogPDF implements Distribution.
func (l LogNormal) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	return -z*z/2 - math.Log(x*l.Sigma) - 0.5*math.Log(2*math.Pi)
}

// CDF implements Distribution.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return 0.5 * (1 + math.Erf((math.Log(x)-l.Mu)/(l.Sigma*math.Sqrt2)))
}

// Quantile implements Distribution.
func (l LogNormal) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	default:
		return math.Exp(l.Mu + l.Sigma*math.Sqrt2*erfInv(2*p-1))
	}
}

// Mean implements Distribution.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Var implements Distribution.
func (l LogNormal) Var() float64 {
	s2 := l.Sigma * l.Sigma
	return (math.Exp(s2) - 1) * math.Exp(2*l.Mu+s2)
}

// Rand implements Distribution.
func (l LogNormal) Rand(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// LogNormalFitter estimates the log-normal law by MLE — the sample mean and
// standard deviation of ln x.
type LogNormalFitter struct{}

var _ Fitter = LogNormalFitter{}

// FamilyName implements Fitter.
func (LogNormalFitter) FamilyName() string { return "lognormal" }

// Fit implements Fitter: the MLE is the cached mean and
// variance of ln x — no log pass and no scratch slice per fit.
func (LogNormalFitter) Fit(s *Sample) (Distribution, error) {
	if _, _, _, err := s.moments(true); err != nil {
		return nil, fmt.Errorf("fit lognormal: %w", err)
	}
	variance := s.VarLog()
	if variance <= 0 {
		return nil, fmt.Errorf("fit lognormal: degenerate sample (all values equal)")
	}
	return NewLogNormal(s.MeanLog(), math.Sqrt(variance))
}
