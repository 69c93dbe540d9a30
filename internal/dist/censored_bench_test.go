package dist_test

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/joblog"
	"repro/internal/sim"
)

// The paired BenchmarkCensoredWeibull_PerJob/_Distinct benchmarks measure
// E23's censored Weibull fit at paper scale: 344,701 observations whose
// integer-second times take ≈26k distinct values, the shape of the
// 2001-day corpus's job runtimes. PerJob runs the per-observation oracle,
// Distinct runs FitCensoredWeibull; both produce the same bits.
// BenchmarkCensoredWeibull_Distinct reports "speedup": the median of three
// per-job runs divided by its per-iteration time.

var (
	censoredBenchOnce sync.Once
	censoredBenchObs  []dist.CensoredObservation
)

// censoredBenchSample draws Weibull(0.62, 31564) lifetimes censored by an
// exponential clock of mean 7000 s, both rounded up to whole seconds:
// 344,701 observations over 26,141 distinct times.
func censoredBenchSample() []dist.CensoredObservation {
	censoredBenchOnce.Do(func() {
		truth, _ := dist.NewWeibull(0.62, 31564)
		rng := rand.New(rand.NewSource(1))
		censoredBenchObs = make([]dist.CensoredObservation, 344701)
		for i := range censoredBenchObs {
			life := math.Ceil(truth.Rand(rng))
			clock := math.Ceil(rng.ExpFloat64() * 7000)
			censoredBenchObs[i] = dist.CensoredObservation{Time: math.Min(life, clock), Observed: life <= clock}
		}
	})
	return censoredBenchObs
}

func fitBits(t *testing.T, name string, obs []dist.CensoredObservation) {
	t.Helper()
	got, err := dist.FitCensoredWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dist.FitCensoredWeibullPerJob(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Shape) != math.Float64bits(want.Shape) ||
		math.Float64bits(got.Scale) != math.Float64bits(want.Scale) {
		t.Errorf("%s: fit (%v, %v), per-job oracle (%v, %v)", name, got.Shape, got.Scale, want.Shape, want.Scale)
	}
}

// TestFitCensoredWeibullMatchesPerJobOnCorpus checks the fit on E23's
// observations of the 30-day corpus (built the way core.Survival builds
// them) and on the benchmark sample, so the pair below compares equal
// work.
func TestFitCensoredWeibullMatchesPerJobOnCorpus(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var obs []dist.CensoredObservation
	for i := range c.Jobs {
		j := &c.Jobs[i]
		sec := j.Runtime().Seconds()
		if sec <= 0 {
			continue
		}
		observed := j.Outcome() == joblog.OutcomeFailure &&
			joblog.Family(j.ExitStatus) != joblog.FamilySystem
		obs = append(obs, dist.CensoredObservation{Time: sec, Observed: observed})
	}
	if len(obs) < 1000 {
		t.Fatalf("30-day corpus has only %d survival observations", len(obs))
	}
	fitBits(t, "30-day corpus", obs)
	if testing.Short() {
		return
	}
	fitBits(t, "benchmark sample", censoredBenchSample())
}

func BenchmarkCensoredWeibull_PerJob(b *testing.B) {
	obs := censoredBenchSample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitCensoredWeibullPerJob(obs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCensoredWeibull_Distinct(b *testing.B) {
	obs := censoredBenchSample()
	// Median of three per-job runs sampled outside the timer: the baseline
	// for the speedup metric, robust to a single scheduling stall.
	var samples []time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := dist.FitCensoredWeibullPerJob(obs); err != nil {
			b.Fatal(err)
		}
		samples = append(samples, time.Since(t0))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	perJob := samples[1]

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitCensoredWeibull(obs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(perJob.Nanoseconds())/perIter, "speedup")
	}
}
