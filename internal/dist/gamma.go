package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Gamma is the gamma distribution with shape k > 0 and rate β > 0
// (mean k/β). Erlang is its integer-shape special case.
type Gamma struct {
	Shape float64 // k
	Rate  float64 // β
}

var _ Distribution = Gamma{}

// NewGamma returns a gamma distribution with the given shape and rate.
func NewGamma(shape, rate float64) (Gamma, error) {
	if shape <= 0 || rate <= 0 || math.IsNaN(shape) || math.IsNaN(rate) {
		return Gamma{}, fmt.Errorf("dist: gamma shape %v / rate %v must be positive", shape, rate)
	}
	return Gamma{Shape: shape, Rate: rate}, nil
}

// Name implements Distribution.
func (Gamma) Name() string { return "gamma" }

// NumParams implements Distribution.
func (Gamma) NumParams() int { return 2 }

// PDF implements Distribution.
func (g Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case g.Shape < 1:
			return math.Inf(1)
		case g.Shape == 1:
			return g.Rate
		default:
			return 0
		}
	}
	return math.Exp(g.LogPDF(x))
}

// LogPDF implements Distribution.
func (g Gamma) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return g.Shape*math.Log(g.Rate) + (g.Shape-1)*math.Log(x) - g.Rate*x - lnGamma(g.Shape)
}

// CDF implements Distribution.
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return regIncGammaLower(g.Shape, g.Rate*x)
}

// Quantile implements Distribution. Solved by bisection on the CDF (the
// incomplete-gamma inverse has no closed form).
func (g Gamma) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	// Bracket: start at mean, expand.
	hi := g.Mean()
	if hi <= 0 || math.IsInf(hi, 0) {
		hi = 1
	}
	for g.CDF(hi) < p {
		hi *= 2
		if hi > 1e300 {
			return math.Inf(1)
		}
	}
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if g.CDF(mid) < p {
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
func (g Gamma) Mean() float64 { return g.Shape / g.Rate }

// Var implements Distribution.
func (g Gamma) Var() float64 { return g.Shape / (g.Rate * g.Rate) }

// Rand implements Distribution. Uses Marsaglia–Tsang for shape ≥ 1 and the
// boost x·U^{1/k} for shape < 1.
func (g Gamma) Rand(rng *rand.Rand) float64 {
	k := g.Shape
	boost := 1.0
	if k < 1 {
		boost = math.Pow(rng.Float64(), 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * d * v / g.Rate
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return boost * d * v / g.Rate
		}
	}
}

// GammaFitter estimates gamma parameters by maximum likelihood using the
// Minka (2002) fixed-point/Newton update on the shape:
//
//	1/k_{t+1} = 1/k_t + (ln k̄ − ψ(k_t) − s) / (k_t² (1/k_t − ψ′(k_t)))
//
// where s = ln(mean) − mean(ln x).
type GammaFitter struct{}

var _ Fitter = GammaFitter{}

// FamilyName implements Fitter.
func (GammaFitter) FamilyName() string { return "gamma" }

// Fit implements Fitter: the Minka iteration consumes only the cached
// mean and mean-log, so the fit is O(iterations) with no data pass.
func (GammaFitter) Fit(sm *Sample) (Distribution, error) {
	_, mean, _, err := sm.moments(true)
	if err != nil {
		return nil, fmt.Errorf("fit gamma: %w", err)
	}
	meanLog := sm.MeanLog()
	s := math.Log(mean) - meanLog
	if s <= 0 {
		return nil, fmt.Errorf("fit gamma: degenerate sample (zero log-spread)")
	}
	// Initial approximation (Minka).
	k := (3 - s + math.Sqrt((s-3)*(s-3)+24*s)) / (12 * s)
	if k <= 0 || math.IsNaN(k) {
		k = 0.5
	}
	for iter := 0; iter < 200; iter++ {
		num := math.Log(k) - digamma(k) - s
		den := k * k * (1/k - trigamma(k))
		next := 1 / (1/k + num/den)
		if next <= 0 || math.IsNaN(next) {
			break
		}
		if math.Abs(next-k) < 1e-12*math.Max(1, k) {
			k = next
			break
		}
		k = next
	}
	return NewGamma(k, k/mean)
}

// Erlang is the Erlang distribution: a gamma law with integer shape k ≥ 1.
// The paper reports Erlang/exponential as the best fit for some exit-code
// families; Erlang with k=1 is exactly exponential.
type Erlang struct {
	K    int     // integer shape ≥ 1
	Rate float64 // β > 0
}

var _ Distribution = Erlang{}

// NewErlang returns an Erlang distribution with integer shape k and rate.
func NewErlang(k int, rate float64) (Erlang, error) {
	if k < 1 {
		return Erlang{}, fmt.Errorf("dist: erlang shape %d must be ≥ 1", k)
	}
	if rate <= 0 || math.IsNaN(rate) {
		return Erlang{}, fmt.Errorf("dist: erlang rate %v must be positive", rate)
	}
	return Erlang{K: k, Rate: rate}, nil
}

func (e Erlang) gamma() Gamma { return Gamma{Shape: float64(e.K), Rate: e.Rate} }

// Name implements Distribution.
func (Erlang) Name() string { return "erlang" }

// NumParams implements Distribution.
func (Erlang) NumParams() int { return 2 }

// PDF implements Distribution.
func (e Erlang) PDF(x float64) float64 { return e.gamma().PDF(x) }

// LogPDF implements Distribution.
func (e Erlang) LogPDF(x float64) float64 { return e.gamma().LogPDF(x) }

// CDF implements Distribution.
func (e Erlang) CDF(x float64) float64 { return e.gamma().CDF(x) }

// Quantile implements Distribution.
func (e Erlang) Quantile(p float64) float64 { return e.gamma().Quantile(p) }

// Mean implements Distribution.
func (e Erlang) Mean() float64 { return float64(e.K) / e.Rate }

// Var implements Distribution.
func (e Erlang) Var() float64 { return float64(e.K) / (e.Rate * e.Rate) }

// Rand implements Distribution. Sum of K exponentials.
func (e Erlang) Rand(rng *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < e.K; i++ {
		sum += rng.ExpFloat64()
	}
	return sum / e.Rate
}

// ErlangFitter estimates the Erlang law by profile maximum likelihood: for
// each integer shape k in [1, maxK] the rate MLE is k/mean; the k with the
// highest log-likelihood wins.
type ErlangFitter struct {
	// MaxK bounds the shape search; 0 means the default of 50.
	MaxK int
}

var _ Fitter = ErlangFitter{}

// FamilyName implements Fitter.
func (ErlangFitter) FamilyName() string { return "erlang" }

// Fit implements Fitter. The Erlang log-likelihood is linear in the
// sufficient statistics (n·k·lnβ + (k−1)Σln x − βΣx − n·lnΓ(k)), so the
// profile search over shapes is O(maxK) rather than O(maxK·n).
func (f ErlangFitter) Fit(s *Sample) (Distribution, error) {
	_, mean, _, err := s.moments(true)
	if err != nil {
		return nil, fmt.Errorf("fit erlang: %w", err)
	}
	maxK := f.MaxK
	if maxK <= 0 {
		maxK = 50
	}
	bestLL := math.Inf(-1)
	var best Erlang
	for k := 1; k <= maxK; k++ {
		e := Erlang{K: k, Rate: float64(k) / mean}
		ll := s.gammaLogLikelihood(float64(k), e.Rate)
		if ll > bestLL {
			bestLL = ll
			best = e
		}
	}
	if math.IsInf(bestLL, -1) {
		return nil, fmt.Errorf("fit erlang: no finite-likelihood shape in [1,%d]", maxK)
	}
	return best, nil
}
