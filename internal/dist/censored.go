package dist

import (
	"fmt"
	"math"
)

// CensoredObservation is a duration with an event indicator for parametric
// censored fitting (false = right-censored: the event had not happened yet
// when observation stopped).
type CensoredObservation struct {
	Time     float64
	Observed bool
}

// FitCensoredWeibull estimates Weibull parameters by maximum likelihood
// from right-censored data:
//
//	log L = Σ_obs [ln f(x)] + Σ_cens [ln S(x)]
//
// Profiling out the scale gives λ̂^k = Σ_all x_i^k / n_obs, and the shape
// solves
//
//	Σ_all x^k ln x / Σ_all x^k − 1/k − mean_obs(ln x) = 0,
//
// the censored generalization of the uncensored Weibull MLE equation.
// This is the parametric counterpart of the Kaplan–Meier estimator: on
// job-failure data it recovers the infant-mortality shape (k < 1) directly
// from the censored stream.
func FitCensoredWeibull(obs []CensoredObservation) (Weibull, error) {
	// Job runtimes are integer seconds, so a corpus of ≈345k jobs holds only
	// ≈26k distinct times. Intern them once: every transcendental below
	// (ln x, and x^k at each trial shape) is evaluated once per distinct
	// time and gathered through the per-observation index. The sums still
	// run over the observations in their original order, and math.Log and
	// math.Pow are deterministic, so every addend, every sum and the fitted
	// parameters carry the same bits as a per-observation evaluation.
	tt, err := internTimes(obs)
	if err != nil {
		return Weibull{}, err
	}
	var nObs int
	var meanLogObs float64
	for i, o := range obs {
		if o.Observed {
			nObs++
			meanLogObs += tt.logs[tt.idx[i]]
		}
	}
	if len(obs) < 2 {
		return Weibull{}, fmt.Errorf("fit censored weibull: %w", ErrTooFewPoints)
	}
	if nObs < 2 {
		return Weibull{}, fmt.Errorf("fit censored weibull: need ≥2 observed events, have %d", nObs)
	}
	meanLogObs /= float64(nObs)

	xk := make([]float64, len(tt.times))
	g := func(k float64) float64 {
		tt.pow(xk, k)
		var sxk, sxkl float64
		for _, d := range tt.idx {
			x := xk[d]
			sxk += x
			sxkl += x * tt.logs[d]
		}
		return sxkl/sxk - 1/k - meanLogObs
	}
	// gTriple evaluates g at k, k+h and k−h in a single sweep of the index.
	// Each of the six sums has its own accumulator fed in the same
	// observation order as three separate g calls, and the final
	// expressions are unchanged, so the results carry the exact same bits.
	xp := make([]float64, len(tt.times))
	xm := make([]float64, len(tt.times))
	gTriple := func(k, h float64) (gk, gp, gm float64) {
		kp, km := k+h, k-h
		tt.pow(xk, k)
		tt.pow(xp, kp)
		tt.pow(xm, km)
		var sxk, sxkl, sxkp, sxklp, sxkm, sxklm float64
		for _, d := range tt.idx {
			l := tt.logs[d]
			x := xk[d]
			sxk += x
			sxkl += x * l
			p := xp[d]
			sxkp += p
			sxklp += p * l
			m := xm[d]
			sxkm += m
			sxklm += m * l
		}
		gk = sxkl/sxk - 1/k - meanLogObs
		gp = sxklp/sxkp - 1/kp - meanLogObs
		gm = sxklm/sxkm - 1/km - meanLogObs
		return gk, gp, gm
	}

	// Newton with numeric derivative, bisection fallback (g is increasing).
	k := 1.0
	const tol = 1e-10
	converged := false
	for iter := 0; iter < 100; iter++ {
		h := 1e-6 * math.Max(1, k)
		gk, gp, gm := gTriple(k, h)
		if math.Abs(gk) < tol {
			converged = true
			break
		}
		dg := (gp - gm) / (2 * h)
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
		lo, hi := 1e-3, 100.0
		if g(lo) > 0 || g(hi) < 0 {
			return Weibull{}, fmt.Errorf("fit censored weibull: shape equation has no root in [%g,%g]", lo, hi)
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

	tt.pow(xk, k)
	var sxk float64
	for _, d := range tt.idx {
		sxk += xk[d]
	}
	scale := math.Pow(sxk/float64(nObs), 1/k)
	return NewWeibull(k, scale)
}

// tiedTimes is a set of observation times interned to their distinct
// values: times[idx[i]] is observation i's time and logs holds ln of each
// distinct time.
type tiedTimes struct {
	times, logs []float64
	idx         []int32
}

// internTimes interns the observation times in first-occurrence order,
// rejecting the first non-positive, NaN or infinite time.
func internTimes(obs []CensoredObservation) (tiedTimes, error) {
	tt := tiedTimes{idx: make([]int32, len(obs))}
	// For positive finite times, equal bits is the same equality as ==, and
	// the runtime looks a 64-bit key up faster than a float64 one.
	slot := make(map[uint64]int32)
	for i, o := range obs {
		if o.Time <= 0 || math.IsNaN(o.Time) || math.IsInf(o.Time, 0) {
			return tiedTimes{}, fmt.Errorf("fit censored weibull: %w", ErrBadSample)
		}
		key := math.Float64bits(o.Time)
		d, ok := slot[key]
		if !ok {
			d = int32(len(tt.times))
			slot[key] = d
			tt.times = append(tt.times, o.Time)
			tt.logs = append(tt.logs, math.Log(o.Time))
		}
		tt.idx[i] = d
	}
	return tt, nil
}

// pow fills dst[d] = times[d]^k.
func (tt *tiedTimes) pow(dst []float64, k float64) {
	for d, t := range tt.times {
		dst[d] = math.Pow(t, k)
	}
}
