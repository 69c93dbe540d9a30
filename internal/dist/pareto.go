package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Pareto is the Pareto (Type I) distribution with scale x_m > 0 (the
// minimum) and shape α > 0. Heavy upper tails of failed-job durations —
// long-running jobs that eventually die — are Pareto in the paper for some
// exit codes.
type Pareto struct {
	Xm    float64 // scale: minimum value
	Alpha float64 // shape
}

var _ Distribution = Pareto{}

// NewPareto returns a Pareto distribution with scale xm and shape alpha.
func NewPareto(xm, alpha float64) (Pareto, error) {
	if xm <= 0 || alpha <= 0 || math.IsNaN(xm) || math.IsNaN(alpha) {
		return Pareto{}, fmt.Errorf("dist: pareto xm %v / alpha %v must be positive", xm, alpha)
	}
	return Pareto{Xm: xm, Alpha: alpha}, nil
}

// Name implements Distribution.
func (Pareto) Name() string { return "pareto" }

// NumParams implements Distribution.
func (Pareto) NumParams() int { return 2 }

// PDF implements Distribution.
func (p Pareto) PDF(x float64) float64 {
	if x < p.Xm {
		return 0
	}
	return p.Alpha * math.Pow(p.Xm, p.Alpha) / math.Pow(x, p.Alpha+1)
}

// LogPDF implements Distribution.
func (p Pareto) LogPDF(x float64) float64 {
	if x < p.Xm {
		return math.Inf(-1)
	}
	return math.Log(p.Alpha) + p.Alpha*math.Log(p.Xm) - (p.Alpha+1)*math.Log(x)
}

// CDF implements Distribution.
func (p Pareto) CDF(x float64) float64 {
	if x <= p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Quantile implements Distribution.
func (p Pareto) Quantile(q float64) float64 {
	switch {
	case q <= 0:
		return p.Xm
	case q >= 1:
		return math.Inf(1)
	default:
		return p.Xm * math.Pow(1-q, -1/p.Alpha)
	}
}

// Mean implements Distribution. Infinite for α ≤ 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Var implements Distribution. Infinite for α ≤ 2.
func (p Pareto) Var() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	a := p.Alpha
	return p.Xm * p.Xm * a / ((a - 1) * (a - 1) * (a - 2))
}

// Rand implements Distribution.
func (p Pareto) Rand(rng *rand.Rand) float64 {
	// Inverse transform: x_m · U^{−1/α} with U uniform on (0,1].
	u := 1 - rng.Float64() // in (0,1]
	return p.Xm * math.Pow(u, -1/p.Alpha)
}

// ParetoFitter estimates Pareto parameters by maximum likelihood:
// x̂_m = min(x), α̂ = n / Σ ln(x_i/x̂_m).
type ParetoFitter struct{}

var _ Fitter = ParetoFitter{}

// FamilyName implements Fitter.
func (ParetoFitter) FamilyName() string { return "pareto" }

// Fit implements Fitter: both parameters are closed-form in the
// cached minimum and Σln x — Σ ln(x_i/x_m) = Σln x − n·ln x_m.
func (ParetoFitter) Fit(s *Sample) (Distribution, error) {
	if _, _, _, err := s.moments(true); err != nil {
		return nil, fmt.Errorf("fit pareto: %w", err)
	}
	xm := s.Min()
	n := float64(s.N())
	sumLog := s.SumLog() - n*math.Log(xm)
	if sumLog <= 0 {
		return nil, fmt.Errorf("fit pareto: degenerate sample (all values equal)")
	}
	return NewPareto(xm, n/sumLog)
}
