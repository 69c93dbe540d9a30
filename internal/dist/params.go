package dist

import "fmt"

// Parametric exposes a distribution's parameter vector so a generic
// optimizer (KSPolish) can perturb a law without knowing its family.
type Parametric interface {
	Distribution
	// Params returns the parameter vector (a fresh slice).
	Params() []float64
	// WithParams returns a distribution of the same family with the given
	// parameters, validating them.
	WithParams(p []float64) (Distribution, error)
}

// Interface checks: every family is Parametric.
var (
	_ Parametric = Exponential{}
	_ Parametric = Weibull{}
	_ Parametric = Pareto{}
	_ Parametric = LogNormal{}
	_ Parametric = Gamma{}
	_ Parametric = Erlang{}
	_ Parametric = InverseGaussian{}
)

func checkArity(name string, p []float64, want int) error {
	if len(p) != want {
		return fmt.Errorf("dist: %s takes %d parameters, got %d", name, want, len(p))
	}
	return nil
}

// Params implements Parametric.
func (e Exponential) Params() []float64 { return []float64{e.Rate} }

// WithParams implements Parametric.
func (Exponential) WithParams(p []float64) (Distribution, error) {
	if err := checkArity("exponential", p, 1); err != nil {
		return nil, err
	}
	return NewExponential(p[0])
}

// Params implements Parametric.
func (w Weibull) Params() []float64 { return []float64{w.Shape, w.Scale} }

// WithParams implements Parametric.
func (Weibull) WithParams(p []float64) (Distribution, error) {
	if err := checkArity("weibull", p, 2); err != nil {
		return nil, err
	}
	return NewWeibull(p[0], p[1])
}

// Params implements Parametric.
func (p Pareto) Params() []float64 { return []float64{p.Xm, p.Alpha} }

// WithParams implements Parametric.
func (Pareto) WithParams(p []float64) (Distribution, error) {
	if err := checkArity("pareto", p, 2); err != nil {
		return nil, err
	}
	return NewPareto(p[0], p[1])
}

// Params implements Parametric.
func (l LogNormal) Params() []float64 { return []float64{l.Mu, l.Sigma} }

// WithParams implements Parametric.
func (LogNormal) WithParams(p []float64) (Distribution, error) {
	if err := checkArity("lognormal", p, 2); err != nil {
		return nil, err
	}
	return NewLogNormal(p[0], p[1])
}

// Params implements Parametric.
func (g Gamma) Params() []float64 { return []float64{g.Shape, g.Rate} }

// WithParams implements Parametric.
func (Gamma) WithParams(p []float64) (Distribution, error) {
	if err := checkArity("gamma", p, 2); err != nil {
		return nil, err
	}
	return NewGamma(p[0], p[1])
}

// Params implements Parametric. The integer shape is exposed as a float;
// WithParams rounds it back, so optimizers effectively tune only the rate.
func (e Erlang) Params() []float64 { return []float64{float64(e.K), e.Rate} }

// WithParams implements Parametric.
func (Erlang) WithParams(p []float64) (Distribution, error) {
	if err := checkArity("erlang", p, 2); err != nil {
		return nil, err
	}
	k := int(p[0] + 0.5)
	return NewErlang(k, p[1])
}

// Params implements Parametric.
func (ig InverseGaussian) Params() []float64 { return []float64{ig.Mu, ig.Lambda} }

// WithParams implements Parametric.
func (InverseGaussian) WithParams(p []float64) (Distribution, error) {
	if err := checkArity("inverse-gaussian", p, 2); err != nil {
		return nil, err
	}
	return NewInverseGaussian(p[0], p[1])
}
