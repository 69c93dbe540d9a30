package stats

import (
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
	sorted := append([]Observation(nil), obs...)
	for _, o := range sorted {
		if o.Time < 0 || math.IsNaN(o.Time) {
			return nil, fmt.Errorf("stats: negative or NaN survival time %v", o.Time)
		}
	}
	// Sort by time with the generic sorter (no reflection per swap). The
	// estimator aggregates events and censorings per unique time, so the
	// order equal times land in cannot affect the curve; NaNs were rejected
	// above.
	slices.SortFunc(sorted, func(a, b Observation) int {
		switch {
		case a.Time < b.Time:
			return -1
		case a.Time > b.Time:
			return 1
		default:
			return 0
		}
	})

	var curve []SurvivalPoint
	surv := 1.0
	atRisk := len(sorted)
	i := 0
	for i < len(sorted) {
		t := sorted[i].Time
		events, censored := 0, 0
		for i < len(sorted) && sorted[i].Time == t {
			if sorted[i].Observed {
				events++
			} else {
				censored++
			}
			i++
		}
		if events > 0 {
			surv *= 1 - float64(events)/float64(atRisk)
			curve = append(curve, SurvivalPoint{Time: t, AtRisk: atRisk, Events: events, Survival: surv})
		}
		atRisk -= events + censored
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
