// Package dist implements the probability distributions the paper fits to
// failed-job execution lengths and interruption intervals — exponential,
// Erlang, gamma, Weibull, Pareto, lognormal and inverse Gaussian —
// together with maximum-likelihood fitters over a sorted Sample and random
// sampling.
//
// Go's standard library has no statistics stack, so the special functions
// (regularized incomplete gamma, digamma, Kolmogorov distribution) are
// implemented here from scratch using only package math.
package dist

import (
	"errors"
	"math"
)

// ErrBadSample is returned by fitters when the data does not satisfy the
// distribution's support (e.g. non-positive values for a positive law).
var ErrBadSample = errors.New("dist: sample outside distribution support")

// ErrTooFewPoints is returned by fitters when the sample is too small to
// estimate the parameters.
var ErrTooFewPoints = errors.New("dist: too few data points to fit")

const (
	eps        = 2.220446049250313e-16 // machine epsilon for float64
	maxIterSpc = 500
)

// lnGamma returns ln Γ(x) for x > 0.
func lnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// digamma returns ψ(x) = d/dx ln Γ(x) for x > 0.
//
// Uses the recurrence ψ(x) = ψ(x+1) − 1/x to push the argument above 6 and
// then the asymptotic expansion.
func digamma(x float64) float64 {
	if x <= 0 && x == math.Floor(x) {
		return math.NaN()
	}
	// Reflection for negative arguments: ψ(1−x) − ψ(x) = π cot(πx).
	if x < 0 {
		return digamma(1-x) - math.Pi/math.Tan(math.Pi*x)
	}
	result := 0.0
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic series: ψ(x) ≈ ln x − 1/(2x) − Σ B_{2n}/(2n x^{2n}).
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*(1.0/132)))))
	return result
}

// trigamma returns ψ′(x), the derivative of digamma, for x > 0.
func trigamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	result := 0.0
	for x < 6 {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// ψ′(x) ≈ 1/x + 1/(2x²) + Σ B_{2n}/x^{2n+1}.
	result += inv * (1 + inv*(0.5+inv*(1.0/6-inv2*(1.0/30-inv2*(1.0/42-inv2/30)))))
	return result
}

// regIncGammaLower returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x ≥ 0.
//
// The series representation converges quickly for x < a+1; the continued
// fraction (Lentz's algorithm) is used otherwise. This is the standard
// Numerical-Recipes split.
func regIncGammaLower(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x < a+1:
		return gammaSeries(a, x)
	default:
		return 1 - gammaContFrac(a, x)
	}
}

// gammaSeries evaluates P(a,x) by its power series.
func gammaSeries(a, x float64) float64 {
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIterSpc; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lnGamma(a))
}

// gammaContFrac evaluates Q(a,x) by its continued fraction using modified
// Lentz's method.
func gammaContFrac(a, x float64) float64 {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIterSpc; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lnGamma(a)) * h
}

// kolmogorovCDF returns the CDF of the Kolmogorov distribution,
// K(x) = P(sup|B(t)| ≤ x) = 1 − 2 Σ_{k≥1} (−1)^{k−1} exp(−2 k² x²),
// the asymptotic law of √n·D_n under the null in the one-sample KS test.
func kolmogorovCDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 5 {
		return 1
	}
	// For small x the theta-function form converges faster.
	if x < 1 {
		t := math.Exp(-math.Pi * math.Pi / (8 * x * x))
		// K(x) = √(2π)/x · Σ exp(−(2k−1)²π²/(8x²))
		sum := t * (1 + math.Pow(t, 8) + math.Pow(t, 24))
		return math.Sqrt(2*math.Pi) / x * sum
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*x*x)
		sum += term
		sign = -sign
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	return 1 - 2*sum
}

// KolmogorovPValue returns the asymptotic p-value of a one-sample KS test
// with statistic d on a sample of size n, using the Marsaglia-style
// continuity correction √n + 0.12 + 0.11/√n.
func KolmogorovPValue(d float64, n int) float64 {
	if n <= 0 {
		return math.NaN()
	}
	sn := math.Sqrt(float64(n))
	x := (sn + 0.12 + 0.11/sn) * d
	p := 1 - kolmogorovCDF(x)
	return math.Min(1, math.Max(0, p))
}

// erfInv returns the inverse error function, used by the log-normal quantile.
// Implementation follows Giles (2010) with a polishing Newton step.
func erfInv(x float64) float64 {
	if x <= -1 {
		return math.Inf(-1)
	}
	if x >= 1 {
		return math.Inf(1)
	}
	if x == 0 {
		return 0
	}
	w := -math.Log((1 - x) * (1 + x))
	var p float64
	if w < 5 {
		w -= 2.5
		p = 2.81022636e-08
		p = 3.43273939e-07 + p*w
		p = -3.5233877e-06 + p*w
		p = -4.39150654e-06 + p*w
		p = 0.00021858087 + p*w
		p = -0.00125372503 + p*w
		p = -0.00417768164 + p*w
		p = 0.246640727 + p*w
		p = 1.50140941 + p*w
	} else {
		w = math.Sqrt(w) - 3
		p = -0.000200214257
		p = 0.000100950558 + p*w
		p = 0.00134934322 + p*w
		p = -0.00367342844 + p*w
		p = 0.00573950773 + p*w
		p = -0.0076224613 + p*w
		p = 0.00943887047 + p*w
		p = 1.00167406 + p*w
		p = 2.83297682 + p*w
	}
	y := p * x
	// One Newton step: f(y) = erf(y) − x.
	y -= (math.Erf(y) - x) / (2 / math.SqrtPi * math.Exp(-y*y))
	return y
}
