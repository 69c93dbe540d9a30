package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestKaplanMeierTextbook(t *testing.T) {
	// Classic worked example: events at 1, 3, 4; censored at 2 and 5.
	obs := []Observation{
		{1, true}, {2, false}, {3, true}, {4, true}, {5, false},
	}
	curve, err := KaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	// S(1) = 1 - 1/5 = 0.8
	// S(3) = 0.8 * (1 - 1/3) = 0.5333...
	// S(4) = 0.5333 * (1 - 1/2) = 0.2667
	want := []struct {
		time, surv float64
		atRisk     int
	}{
		{1, 0.8, 5}, {3, 0.8 * 2.0 / 3.0, 3}, {4, 0.8 * 2.0 / 3.0 * 0.5, 2},
	}
	if len(curve) != len(want) {
		t.Fatalf("curve has %d points, want %d", len(curve), len(want))
	}
	for i, w := range want {
		p := curve[i]
		if p.Time != w.time || p.AtRisk != w.atRisk || math.Abs(p.Survival-w.surv) > 1e-12 {
			t.Errorf("point %d = %+v, want t=%v n=%d S=%v", i, p, w.time, w.atRisk, w.surv)
		}
	}
	if s := SurvivalAt(curve, 0.5); s != 1 {
		t.Errorf("S(0.5) = %v, want 1", s)
	}
	if s := SurvivalAt(curve, 3.5); math.Abs(s-0.8*2.0/3.0) > 1e-12 {
		t.Errorf("S(3.5) = %v", s)
	}
	if s := SurvivalAt(curve, 4); math.Abs(s-0.8*2.0/3.0*0.5) > 1e-12 {
		t.Errorf("S(4) = %v", s)
	}
}

func TestKaplanMeierTies(t *testing.T) {
	// Two events and one censor at the same time.
	obs := []Observation{
		{2, true}, {2, true}, {2, false}, {5, true},
	}
	curve, err := KaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 {
		t.Fatalf("points = %d", len(curve))
	}
	if curve[0].Events != 2 || curve[0].AtRisk != 4 {
		t.Errorf("tied point = %+v", curve[0])
	}
	if math.Abs(curve[0].Survival-0.5) > 1e-12 {
		t.Errorf("S(2) = %v, want 0.5", curve[0].Survival)
	}
	// Last subject at risk is the one at t=5.
	if curve[1].AtRisk != 1 || curve[1].Survival != 0 {
		t.Errorf("last point = %+v", curve[1])
	}
}

func TestKaplanMeierErrors(t *testing.T) {
	if _, err := KaplanMeier(nil); !errors.Is(err, ErrEmpty) {
		t.Error("empty accepted")
	}
	if _, err := KaplanMeier([]Observation{{-1, true}}); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := KaplanMeier([]Observation{{1, false}, {2, false}}); err == nil {
		t.Error("all-censored accepted")
	}
}

// TestKaplanMeierNoCensoringMatchesECDF: without censoring, KM reduces to
// 1 − ECDF.
func TestKaplanMeierNoCensoringMatchesECDF(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 500)
	obs := make([]Observation, 500)
	for i := range data {
		data[i] = rng.ExpFloat64() * 100
		obs[i] = Observation{Time: data[i], Observed: true}
	}
	curve, err := KaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	ecdf, err := NewECDFSorted(sorted)
	if err != nil {
		t.Fatal(err)
	}
	// Halfway between the k-th and (k+1)-th order statistics the ECDF is
	// (k+1)/n, so the KM curve there must be 1 − (k+1)/n.
	n := len(sorted)
	for _, k := range []int{0, 49, 249, 449, n - 2} {
		q := ecdf.Quantile((float64(k) + 0.5) / float64(n-1))
		km := SurvivalAt(curve, q)
		want := 1 - float64(k+1)/float64(n)
		if math.Abs(km-want) > 1e-9 {
			t.Errorf("S(%v) = %v, 1-ECDF = %v", q, km, want)
		}
	}
}

// TestKaplanMeierRecoversCensoredExponential: exponential lifetimes with
// independent censoring — KM at the true median should be ≈0.5 even though
// the naive ECDF of observed events is biased.
func TestKaplanMeierRecoversCensoredExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 20000
	const rate = 0.01 // median ≈ 69.3
	obs := make([]Observation, n)
	for i := range obs {
		life := rng.ExpFloat64() / rate
		censor := rng.ExpFloat64() / rate * 2 // independent censoring
		if life <= censor {
			obs[i] = Observation{Time: life, Observed: true}
		} else {
			obs[i] = Observation{Time: censor, Observed: false}
		}
	}
	curve, err := KaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	trueMedian := math.Ln2 / rate
	if s := SurvivalAt(curve, trueMedian); math.Abs(s-0.5) > 0.02 {
		t.Errorf("S(true median) = %v, want ≈0.5", s)
	}
}

func TestAutocorrelation(t *testing.T) {
	// Perfectly periodic series: strong positive ACF at the period.
	series := make([]float64, 140)
	for i := range series {
		series[i] = math.Sin(2 * math.Pi * float64(i) / 7)
	}
	ac7, err := Autocorrelation(series, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ac7 < 0.9 {
		t.Errorf("ACF at period = %v, want ≈1", ac7)
	}
	ac3, _ := Autocorrelation(series, 3)
	if ac3 > ac7 {
		t.Errorf("off-period ACF %v above on-period %v", ac3, ac7)
	}
	// White noise: near zero.
	rng := rand.New(rand.NewSource(8))
	noise := make([]float64, 5000)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	acn, _ := Autocorrelation(noise, 1)
	if math.Abs(acn) > 0.05 {
		t.Errorf("noise ACF = %v", acn)
	}
	if _, err := Autocorrelation(series, 0); err == nil {
		t.Error("lag 0 accepted")
	}
	if _, err := Autocorrelation(series, len(series)); err == nil {
		t.Error("lag ≥ n accepted")
	}
	if _, err := Autocorrelation(nil, 1); !errors.Is(err, ErrEmpty) {
		t.Error("empty accepted")
	}
	if _, err := Autocorrelation([]float64{2, 2, 2}, 1); err == nil {
		t.Error("constant series accepted")
	}
}
