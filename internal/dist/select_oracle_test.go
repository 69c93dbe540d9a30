package dist

import (
	"math"
	"math/rand"
	"testing"
)

// adStatisticPerPoint is the Anderson–Darling loop ADStatisticSorted
// replaced, kept verbatim as the oracle: two CDF calls per point, tied or
// not. ADStatisticSorted must reproduce its bits.
func adStatisticPerPoint(d Distribution, sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		fi := d.CDF(sorted[i])
		fj := d.CDF(sorted[n-1-i])
		if fi <= 0 || fj >= 1 {
			return math.Inf(1)
		}
		sum += float64(2*i+1) * (math.Log(fi) + math.Log1p(-fj))
	}
	return -float64(n) - sum/float64(n)
}

func TestADStatisticSortedMatchesPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tied := make([]float64, 5000)
	untied := make([]float64, 5000)
	for i := range tied {
		untied[i] = rng.ExpFloat64()*5 + 0.1
		tied[i] = math.Ceil(untied[i])
	}
	negZero := math.Copysign(0, -1)
	samples := map[string][]float64{
		"tied":         NewSample(tied).Sorted(),
		"untied":       NewSample(untied).Sorted(),
		"one value":    {3, 3, 3, 3},
		"single":       {2},
		"signed zeros": {negZero, 0, negZero, 1, 2, 2},
		"below":        {-5, -5, 1, 2},
		"above":        {1, 2, 1e300, 1e300},
		"infinite":     {1, 1, 2, math.Inf(1)},
	}
	for _, d := range testDists(t) {
		for name, sorted := range samples {
			got, want := ADStatisticSorted(d, sorted), adStatisticPerPoint(d, sorted)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%T on %s: AD %v, per-point oracle %v", d, name, got, want)
			}
		}
	}
	var d Distribution = testDists(t)[1]
	sorted := samples["tied"]
	var sink float64
	if n := testing.AllocsPerRun(20, func() { sink += ADStatisticSorted(d, sorted) }); n != 0 {
		t.Errorf("ADStatisticSorted allocates %v per run on tied data, want 0", n)
	}
	_ = sink
}
