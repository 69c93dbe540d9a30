package dist

import "math/rand"

// Distribution is a continuous univariate probability law.
//
// All distributions in this package are immutable value types; methods never
// mutate the receiver and are safe for concurrent use. Rand draws from the
// provided source so callers control determinism.
type Distribution interface {
	// Name returns the family name, e.g. "weibull".
	Name() string
	// NumParams returns the number of free parameters (for AIC/BIC).
	NumParams() int
	// PDF returns the density at x (0 outside the support).
	PDF(x float64) float64
	// LogPDF returns ln PDF(x) (−Inf outside the support).
	LogPDF(x float64) float64
	// CDF returns P(X ≤ x).
	CDF(x float64) float64
	// Quantile returns the p-quantile for p in [0,1].
	Quantile(p float64) float64
	// Mean returns the expected value (may be +Inf, e.g. Pareto α ≤ 1).
	Mean() float64
	// Var returns the variance (may be +Inf).
	Var() float64
	// Rand draws one variate using rng.
	Rand(rng *rand.Rand) float64
}

// Fitter estimates a distribution's parameters from a Sample by maximum
// likelihood. A series enters model selection only as a Sample, sorted once
// and shared by every candidate.
type Fitter interface {
	// FamilyName returns the family this fitter estimates, e.g. "pareto".
	FamilyName() string
	// Fit returns the MLE distribution for the sample.
	Fit(s *Sample) (Distribution, error)
}

// LogLikelihood returns the sample log-likelihood Σ ln f(x_i) under d by a
// scan of data. Sample.LogLikelihood uses it for Weibull (no closed form)
// and for non-finite samples; it is also the closed forms' test oracle.
func LogLikelihood(d Distribution, data []float64) float64 {
	ll := 0.0
	for _, x := range data {
		ll += d.LogPDF(x)
	}
	return ll
}
