package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Observation is one subject of a survival analysis: a duration and
// whether the terminal event was observed (false = right-censored).
//
// For job-failure survival, a failed job contributes an observed event at
// its execution length, while a successful job is censored: it ran that
// long without failing, and would have failed at some unknown later time.
type Observation struct {
	Time     float64
	Observed bool
}

// SurvivalPoint is one step of a Kaplan–Meier curve.
type SurvivalPoint struct {
	Time     float64 // event time
	AtRisk   int     // subjects at risk just before Time
	Events   int     // events at Time
	Survival float64 // S(Time)
}

// KaplanMeier estimates the survival function S(t) from right-censored
// data using the product-limit estimator:
//
//	S(t) = Π_{t_i ≤ t} (1 − d_i / n_i)
//
// where d_i are events and n_i subjects at risk at event time t_i.
// Censored subjects leave the risk set without contributing an event.
func KaplanMeier(obs []Observation) ([]SurvivalPoint, error) {
	if len(obs) == 0 {
		return nil, ErrEmpty
	}
	// Tally events and censorings per distinct time, then sort only the
	// distinct times: job runtimes are integer seconds, so ≈345k
	// observations collapse to ≈26k times. The product-limit loop below
	// sees the same (time, events, censored) groups, in the same order, as
	// a walk over the sorted observations would, so every point carries the
	// same bits. Time equality stays ==: the map key is the time's bits
	// with −0 folded onto +0 (NaN is rejected), a 64-bit key the runtime
	// looks up faster than a float64 one, and a tied zero point keeps the
	// sign of whichever zero came first.
	type tally struct {
		t                float64
		events, censored int
	}
	slot := make(map[uint64]int32)
	var tallies []tally
	for _, o := range obs {
		if o.Time < 0 || math.IsNaN(o.Time) {
			return nil, fmt.Errorf("stats: negative or NaN survival time %v", o.Time)
		}
		key := math.Float64bits(o.Time)
		if o.Time == 0 {
			key = 0
		}
		d, ok := slot[key]
		if !ok {
			d = int32(len(tallies))
			slot[key] = d
			tallies = append(tallies, tally{t: o.Time})
		}
		if o.Observed {
			tallies[d].events++
		} else {
			tallies[d].censored++
		}
	}
	slices.SortFunc(tallies, func(a, b tally) int { return cmp.Compare(a.t, b.t) })

	var curve []SurvivalPoint
	surv := 1.0
	atRisk := len(obs)
	for _, g := range tallies {
		if g.events > 0 {
			surv *= 1 - float64(g.events)/float64(atRisk)
			curve = append(curve, SurvivalPoint{Time: g.t, AtRisk: atRisk, Events: g.events, Survival: surv})
		}
		atRisk -= g.events + g.censored
	}
	if len(curve) == 0 {
		return nil, fmt.Errorf("stats: no observed events (all %d censored)", len(obs))
	}
	return curve, nil
}

// SurvivalAt evaluates a Kaplan–Meier curve at time t (step function;
// S = 1 before the first event).
func SurvivalAt(curve []SurvivalPoint, t float64) float64 {
	s := 1.0
	for _, p := range curve {
		if p.Time > t {
			break
		}
		s = p.Survival
	}
	return s
}

// Autocorrelation returns the sample autocorrelation of the series at the
// given lag (0 < lag < len(series)).
func Autocorrelation(series []float64, lag int) (float64, error) {
	n := len(series)
	if n == 0 {
		return 0, ErrEmpty
	}
	if lag <= 0 || lag >= n {
		return 0, fmt.Errorf("stats: lag %d out of range (0, %d)", lag, n)
	}
	m := Mean(series)
	var num, den float64
	for i := 0; i < n; i++ {
		d := series[i] - m
		den += d * d
	}
	if den == 0 {
		return 0, fmt.Errorf("stats: constant series has no autocorrelation")
	}
	for i := 0; i < n-lag; i++ {
		num += (series[i] - m) * (series[i+lag] - m)
	}
	return num / den, nil
}
