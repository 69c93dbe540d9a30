package core

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/joblog"
	"repro/internal/stats"
)

// SurvivalResult is the censored time-to-user-failure analysis of job
// executions: a Kaplan–Meier curve where user failures are observed events
// and completed or system-killed jobs are right-censored (they ran that
// long without a user failure).
//
// The naive per-failure duration histogram (E5/E6) conditions on failing;
// the survival view answers the operator's question directly: "given a
// running job, what is the chance it user-fails within the next hour?"
type SurvivalResult struct {
	Jobs     int
	Events   int // user failures (observed)
	Censored int // successes + system kills
	Curve    []stats.SurvivalPoint
	// Survival probabilities at fixed horizons (seconds).
	Horizons map[int]float64
	// HazardDecreasing reports whether the average hazard over the first
	// ten minutes exceeds the average hazard over the following hour — the
	// infant-mortality signature in the hazard domain.
	HazardDecreasing bool
	// ParametricWeibull is the censored Weibull MLE over the same
	// observations — the parametric counterpart of the KM curve. A fitted
	// shape below 1 confirms the decreasing hazard model-parametrically.
	ParametricWeibull dist.Weibull
}

// survivalHorizons are the fixed evaluation points (seconds).
var survivalHorizons = []int{60, 600, 3600, 6 * 3600, 24 * 3600}

// Survival runs the Kaplan–Meier analysis of time to user failure. Its
// observations come from the job view's DurSec and Family columns.
func (d *Dataset) Survival() (*SurvivalResult, error) {
	v := d.JobView()
	system := joblog.FamilyCode(joblog.FamilySystem)
	obs := make([]stats.Observation, 0, v.N)
	res := &SurvivalResult{Horizons: map[int]float64{}}
	// A corpus has whole-second times, so float64(DurSec) is the job's
	// Runtime().Seconds(); family 0 is success.
	for i, dur := range v.DurSec {
		if dur <= 0 {
			continue
		}
		observed := v.Family[i] != 0 && v.Family[i] != system
		obs = append(obs, stats.Observation{Time: float64(dur), Observed: observed})
		res.Jobs++
		if observed {
			res.Events++
		} else {
			res.Censored++
		}
	}
	curve, err := stats.KaplanMeier(obs)
	if err != nil {
		return nil, fmt.Errorf("core: survival: %w", err)
	}
	res.Curve = curve
	for _, h := range survivalHorizons {
		res.Horizons[h] = stats.SurvivalAt(curve, float64(h))
	}
	// Average hazard ≈ −ΔlnS / Δt over an interval.
	s10m := res.Horizons[600]
	s70m := stats.SurvivalAt(curve, 600+3600)
	earlyHazard := hazardRate(1, s10m, 600)
	lateHazard := hazardRate(s10m, s70m, 3600)
	res.HazardDecreasing = earlyHazard > lateHazard

	cobs := make([]dist.CensoredObservation, len(obs))
	for i, o := range obs {
		cobs[i] = dist.CensoredObservation{Time: o.Time, Observed: o.Observed}
	}
	w, err := dist.FitCensoredWeibull(cobs)
	if err != nil {
		return nil, fmt.Errorf("core: survival: %w", err)
	}
	res.ParametricWeibull = w
	return res, nil
}

// hazardRate converts a survival drop over an interval into an average
// hazard rate (per second).
func hazardRate(sFrom, sTo, dt float64) float64 {
	if sFrom <= 0 || sTo <= 0 || dt <= 0 {
		return 0
	}
	return (logOf(sFrom) - logOf(sTo)) / dt
}

func logOf(x float64) float64 {
	// ln with a guard; survival probabilities are in (0, 1].
	if x <= 0 {
		return 0
	}
	return math.Log(x)
}
