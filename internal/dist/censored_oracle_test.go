package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fitCensoredWeibullPerJob is the per-observation censored Weibull fit
// that FitCensoredWeibull replaced, kept verbatim as the oracle: it pays
// ln x once per observation and x^k three times per observation per
// Newton step. FitCensoredWeibull must reproduce its shape and scale bit
// for bit.
func fitCensoredWeibullPerJob(obs []CensoredObservation) (Weibull, error) {
	// Hoist the times and their logarithms into flat arrays once: the shape
	// equation is evaluated O(iterations) times and ln x does not depend on
	// k, so caching it removes one transcendental per sample per evaluation
	// (and the flat float64 arrays scan with half the stride of the
	// observation structs). The summation order and every arithmetic step of
	// g are unchanged, so the fitted parameters are bit-identical.
	times := make([]float64, len(obs))
	logs := make([]float64, len(obs))
	var nObs int
	var meanLogObs float64
	for i, o := range obs {
		if o.Time <= 0 || math.IsNaN(o.Time) || math.IsInf(o.Time, 0) {
			return Weibull{}, fmt.Errorf("fit censored weibull: %w", ErrBadSample)
		}
		times[i] = o.Time
		logs[i] = math.Log(o.Time)
		if o.Observed {
			nObs++
			meanLogObs += logs[i]
		}
	}
	if len(obs) < 2 {
		return Weibull{}, fmt.Errorf("fit censored weibull: %w", ErrTooFewPoints)
	}
	if nObs < 2 {
		return Weibull{}, fmt.Errorf("fit censored weibull: need ≥2 observed events, have %d", nObs)
	}
	meanLogObs /= float64(nObs)

	g := func(k float64) float64 {
		var sxk, sxkl float64
		for i, t := range times {
			xk := math.Pow(t, k)
			sxk += xk
			sxkl += xk * logs[i]
		}
		return sxkl/sxk - 1/k - meanLogObs
	}
	// gTriple evaluates g at k, k+h and k−h in a single sweep of the sample
	// arrays. Each of the six sums has its own accumulator fed in the same
	// element order as three separate g calls, and the final expressions are
	// unchanged, so the results carry the exact same bits — only the two
	// extra array traversals per Newton step disappear.
	gTriple := func(k, h float64) (gk, gp, gm float64) {
		kp, km := k+h, k-h
		var sxk, sxkl, sxkp, sxklp, sxkm, sxklm float64
		for i, t := range times {
			l := logs[i]
			xk := math.Pow(t, k)
			sxk += xk
			sxkl += xk * l
			xp := math.Pow(t, kp)
			sxkp += xp
			sxklp += xp * l
			xm := math.Pow(t, km)
			sxkm += xm
			sxklm += xm * l
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

	var sxk float64
	for _, t := range times {
		sxk += math.Pow(t, k)
	}
	scale := math.Pow(sxk/float64(nObs), 1/k)
	return NewWeibull(k, scale)
}

// checkMatchesPerJob requires FitCensoredWeibull to agree with the oracle
// exactly: the same error text, or the same shape and scale bits.
func checkMatchesPerJob(t *testing.T, name string, obs []CensoredObservation) {
	t.Helper()
	got, gotErr := FitCensoredWeibull(obs)
	want, wantErr := fitCensoredWeibullPerJob(obs)
	same := math.Float64bits(got.Shape) == math.Float64bits(want.Shape) &&
		math.Float64bits(got.Scale) == math.Float64bits(want.Scale)
	if gotErr != nil || wantErr != nil {
		same = gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error()
	}
	if !same {
		t.Errorf("%s: got (%v, %v, %v), per-job oracle (%v, %v, %v)",
			name, got.Shape, got.Scale, gotErr, want.Shape, want.Scale, wantErr)
	}
}

// tiedSecondsSample draws Weibull lifetimes and exponential censoring
// clocks rounded up to whole seconds, the shape of the job log's runtimes:
// many observations share each time.
func tiedSecondsSample(n int, seed int64) []CensoredObservation {
	truth, _ := NewWeibull(0.62, 2100)
	rng := rand.New(rand.NewSource(seed))
	obs := make([]CensoredObservation, n)
	for i := range obs {
		life := math.Ceil(truth.Rand(rng))
		clock := math.Ceil(rng.ExpFloat64() * 5000)
		if life <= clock {
			obs[i] = CensoredObservation{Time: life, Observed: true}
		} else {
			obs[i] = CensoredObservation{Time: clock, Observed: false}
		}
	}
	return obs
}

func TestFitCensoredWeibullMatchesPerJob(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		checkMatchesPerJob(t, fmt.Sprintf("tied seconds seed %d", seed), tiedSecondsSample(20000, seed))
	}
	for _, tc := range []struct {
		shape, scale float64
		seed         int64
	}{{0.62, 2100, 17}, {1.8, 500, 17}, {1.0, 1000, 23}, {0.7, 300, 31}} {
		obs, _ := censoredSample(t, tc.shape, tc.scale, 30000, tc.seed)
		checkMatchesPerJob(t, fmt.Sprintf("untied shape %v seed %d", tc.shape, tc.seed), obs)
	}
	// Newton's iterate runs off to large shapes on this sample (every
	// observed event sits at the largest time), so the fit ends in the
	// bisection fallback and returns a shape near 75.
	bisect := []CensoredObservation{{5599, false}, {12629, true}, {12629, true}}
	checkMatchesPerJob(t, "bisection fallback", bisect)
	if w, err := FitCensoredWeibull(bisect); err != nil || w.Shape < 50 {
		t.Errorf("bisection sample: shape %v, err %v; want a fallback shape above 50", w.Shape, err)
	}
	for _, bad := range [][]CensoredObservation{
		nil,
		{{5, true}},
		{{1, true}, {-1, true}},
		{{1, true}, {math.NaN(), true}},
		{{1, true}, {math.Inf(1), false}},
		{{1, false}, {2, false}, {2, false}},
		{{3, true}, {3, true}, {3, true}},
	} {
		checkMatchesPerJob(t, fmt.Sprintf("%v", bad), bad)
	}
}

// fuzzTimes is the small time alphabet FuzzCensoredSurvival draws from, so
// decoded samples are heavily tied. It includes invalid times (zero,
// negative, NaN, +Inf) and magnitudes whose powers overflow at moderate
// shapes.
var fuzzTimes = []float64{1, 2, 3, 60, 61, 3600, 86400, 0.5, 1e-3, 1e6, 1e150, 0, -1, math.NaN(), math.Inf(1), 12629}

// FuzzCensoredSurvival decodes each byte into one observation — the low
// nibble picks a time from fuzzTimes, the top bit the event indicator —
// and requires FitCensoredWeibull to match the per-observation oracle
// exactly: the same error, or the same shape and scale bits.
func FuzzCensoredSurvival(f *testing.F) {
	f.Add([]byte{0x80, 0x81, 0x02, 0x83})
	f.Add([]byte{0x0e, 0x8f, 0x8f})
	f.Add([]byte{0x85, 0x85, 0x86, 0x04, 0x84, 0x03})
	f.Add([]byte{0x8a, 0x8a, 0x00, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		obs := make([]CensoredObservation, len(data))
		for i, b := range data {
			obs[i] = CensoredObservation{Time: fuzzTimes[b&0x0f], Observed: b&0x80 != 0}
		}
		checkMatchesPerJob(t, fmt.Sprintf("%v", obs), obs)
	})
}
