package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kaplanMeierPerObservation is the estimator KaplanMeier replaced, kept
// verbatim as the oracle: it copies and sorts every observation, then
// groups equal times in the sorted walk. KaplanMeier must reproduce every
// curve point.
func kaplanMeierPerObservation(obs []Observation) ([]SurvivalPoint, error) {
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

// checkMatchesPerObservation requires KaplanMeier to agree with the oracle:
// the same error text, or the same curve point for point with Survival
// compared by bits. Time is compared with ==: when −0 and +0 are tied the
// oracle's unstable sort picks which one labels the point, so the sign of
// a zero time was never part of the result.
func checkMatchesPerObservation(t *testing.T, name string, obs []Observation) {
	t.Helper()
	got, gotErr := KaplanMeier(obs)
	want, wantErr := kaplanMeierPerObservation(obs)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, oracle error %v", name, gotErr, wantErr)
		}
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, oracle %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Time != w.Time || g.AtRisk != w.AtRisk || g.Events != w.Events ||
			math.Float64bits(g.Survival) != math.Float64bits(w.Survival) {
			t.Fatalf("%s: point %d = %+v, oracle %+v", name, i, g, w)
		}
	}
}

func TestKaplanMeierMatchesPerObservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tied := make([]Observation, 50000)
	untied := make([]Observation, 20000)
	for i := range tied {
		life := math.Ceil(rng.ExpFloat64() * 3000)
		clock := math.Ceil(rng.ExpFloat64() * 6000)
		tied[i] = Observation{Time: math.Min(life, clock), Observed: life <= clock}
	}
	for i := range untied {
		life := rng.ExpFloat64() * 3000
		clock := rng.ExpFloat64() * 6000
		untied[i] = Observation{Time: math.Min(life, clock), Observed: life <= clock}
	}
	checkMatchesPerObservation(t, "tied seconds", tied)
	checkMatchesPerObservation(t, "untied", untied)

	negZero := math.Copysign(0, -1)
	inf := math.Inf(1)
	for _, obs := range [][]Observation{
		{{negZero, true}, {0, true}, {0, false}, {1, true}},
		{{0, false}, {negZero, true}, {2, true}, {inf, true}},
		{{inf, true}, {inf, false}, {inf, true}, {3, false}},
		{{inf, false}, {5, true}},
		nil,
		{{1, false}, {inf, false}},
		{{1, true}, {-1, true}},
		{{1, true}, {math.NaN(), false}},
	} {
		checkMatchesPerObservation(t, fmt.Sprintf("%v", obs), obs)
	}
	// A zero-time event drops the curve at t = 0 whichever zero labels it.
	curve, err := KaplanMeier([]Observation{{negZero, true}, {0, true}, {1, false}, {2, true}})
	if err != nil {
		t.Fatal(err)
	}
	if curve[0].Time != 0 || curve[0].Events != 2 || curve[0].AtRisk != 4 {
		t.Errorf("tied ±0 point = %+v, want two events of four at risk", curve[0])
	}
}

// kmFuzzTimes is the small time alphabet FuzzKaplanMeier draws from, so
// decoded samples are heavily tied; it includes both zeros, +Inf and the
// invalid negative and NaN times.
var kmFuzzTimes = []float64{0, math.Copysign(0, -1), 1, 2, 3, 60, 3600, 0.5, 1e-300, 1e300, math.Inf(1), -1, math.NaN(), 7, 8, 9}

// FuzzKaplanMeier decodes each byte into one observation — the low nibble
// picks a time from kmFuzzTimes, the top bit the event indicator — and
// requires KaplanMeier to match the per-observation oracle point for point.
func FuzzKaplanMeier(f *testing.F) {
	f.Add([]byte{0x80, 0x81, 0x01, 0x82})
	f.Add([]byte{0x8a, 0x0a, 0x8a, 0x03})
	f.Add([]byte{0x81, 0x80, 0x02, 0x83, 0x84, 0x81, 0x80, 0x02, 0x83, 0x84, 0x0a, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		obs := make([]Observation, len(data))
		for i, b := range data {
			obs[i] = Observation{Time: kmFuzzTimes[b&0x0f], Observed: b&0x80 != 0}
		}
		checkMatchesPerObservation(t, fmt.Sprintf("%v", obs), obs)
	})
}
