package dist_test

import (
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/joblog"
)

// The paired BenchmarkFitLegacy/BenchmarkFitSample benchmarks measure the
// full model-selection hot path — fit every candidate family, rank by KS,
// KS-polish the winner — over the same 150-day corpus series.
//
// The legacy side reproduces the pre-Sample cost profile: each family's fit
// builds its own Sample, each family pays its own copy+sort for the KS and
// AD statistics (the per-point oracles), the log-likelihood is rescanned
// for LogL/AIC/BIC, and the Erlang profile search evaluates an O(n)
// likelihood per candidate shape. The Sample side sorts once and reads every
// statistic off the precomputed sufficient statistics. BenchmarkFitSample
// reports "speedup": the median of three legacy runs divided by the
// per-iteration Sample time, following the Serial/Parallel pairing
// convention of the earlier PR benches. Both sides run serially (workers=1)
// so the ratio isolates the algorithmic gain, not parallel fan-out.

// benchSeries is the failed-job runtime series of the largest exit family
// of the 150-day corpus, capped at 50,000 points.
func benchSeries(b testing.TB) []float64 {
	b.Helper()
	c := simCorpus(b, 150)
	byFamily := map[joblog.ExitFamily][]float64{}
	for i := range c.Jobs {
		j := &c.Jobs[i]
		if j.Outcome() != joblog.OutcomeFailure {
			continue
		}
		if sec := j.Runtime().Seconds(); sec > 0 {
			fam := joblog.Family(j.ExitStatus)
			byFamily[fam] = append(byFamily[fam], sec)
		}
	}
	var series []float64
	for _, s := range byFamily {
		if len(s) > len(series) {
			series = s
		}
	}
	if len(series) > 50000 {
		series = series[:50000]
	}
	if len(series) < 100 {
		b.Fatalf("largest failure family has only %d samples", len(series))
	}
	return series
}

// legacyErlangFit reproduces the pre-Sample Erlang profile search: one full
// O(n) likelihood scan per candidate shape.
func legacyErlangFit(data []float64) (dist.Distribution, error) {
	sum := 0.0
	for _, x := range data {
		if x <= 0 {
			return nil, dist.ErrBadSample
		}
		sum += x
	}
	mean := sum / float64(len(data))
	const maxK = 50
	bestLL := math.Inf(-1)
	var best dist.Erlang
	for k := 1; k <= maxK; k++ {
		e := dist.Erlang{K: k, Rate: float64(k) / mean}
		if ll := dist.LogLikelihood(e, data); ll > bestLL {
			bestLL = ll
			best = e
		}
	}
	return best, nil
}

// legacyWeibullFit reproduces the pre-Sample Weibull estimator: Newton on
// the profile-likelihood shape equation with a numeric derivative — three
// full math.Pow passes over the data per iteration (the Sample path
// precomputes the logs once and uses one analytic-derivative pass).
func legacyWeibullFit(data []float64) (dist.Distribution, error) {
	n := len(data)
	var sum, sumSq, meanLog float64
	for _, x := range data {
		if x <= 0 {
			return nil, dist.ErrBadSample
		}
		sum += x
		sumSq += x * x
		meanLog += math.Log(x)
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	meanLog /= float64(n)

	k := 1.0
	if variance > 0 {
		k = math.Pow(mean/math.Sqrt(variance), 1.086)
	}
	if k <= 0.02 || math.IsNaN(k) {
		k = 0.5
	}
	g := func(k float64) float64 {
		var sxk, sxkl float64
		for _, x := range data {
			xk := math.Pow(x, k)
			sxk += xk
			sxkl += xk * math.Log(x)
		}
		return sxkl/sxk - 1/k - meanLog
	}
	const tol = 1e-10
	for iter := 0; iter < 100; iter++ {
		gk := g(k)
		if math.Abs(gk) < tol {
			break
		}
		h := 1e-6 * math.Max(1, k)
		dg := (g(k+h) - g(k-h)) / (2 * h)
		if dg == 0 || math.IsNaN(dg) {
			break
		}
		next := k - gk/dg
		if next <= 0 {
			next = k / 2
		}
		if math.Abs(next-k) < tol*math.Max(1, k) {
			k = next
			break
		}
		k = next
	}
	sxk := 0.0
	for _, x := range data {
		sxk += math.Pow(x, k)
	}
	return dist.NewWeibull(k, math.Pow(sxk/float64(n), 1/k))
}

// legacyFitAll fits and scores each family on its own: per-statistic
// copy+sort (the per-point KS and AD oracles) and per-criterion likelihood
// scans (LogL, AIC, BIC), serially, with the same ranking as FitAll. The
// Erlang and Weibull fits — the two whose estimators the Sample path
// restructured — use faithful reconstructions of the pre-Sample algorithms.
func legacyFitAll(data []float64) []dist.FitResult {
	fitters := dist.DefaultFitters()
	results := make([]dist.FitResult, len(fitters))
	for i, f := range fitters {
		r := dist.FitResult{Family: f.FamilyName()}
		var d dist.Distribution
		var err error
		switch f.(type) {
		case dist.ErlangFitter:
			d, err = legacyErlangFit(data)
		case dist.WeibullFitter:
			d, err = legacyWeibullFit(data)
		default:
			d, err = f.Fit(dist.NewSample(data))
		}
		if err != nil {
			r.Err = err
			r.KS, r.AD, r.AIC, r.BIC = math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)
			r.LogL = math.Inf(-1)
			results[i] = r
			continue
		}
		r.Dist = d
		k, n := float64(d.NumParams()), float64(len(data))
		r.KS = dist.KSStatisticPerPoint(d, sortedCopy(data))
		r.AD = dist.ADStatisticPerPoint(d, sortedCopy(data))
		r.PValue = dist.KolmogorovPValue(r.KS, len(data))
		r.LogL = dist.LogLikelihood(d, data)
		r.AIC = 2*k - 2*dist.LogLikelihood(d, data)
		r.BIC = k*math.Log(n) - 2*dist.LogLikelihood(d, data)
		results[i] = r
	}
	sort.SliceStable(results, func(i, j int) bool {
		ri, rj := results[i], results[j]
		if ri.Err != nil {
			return false
		}
		if rj.Err != nil {
			return true
		}
		if ri.KS != rj.KS {
			return ri.KS < rj.KS
		}
		return ri.AIC < rj.AIC
	})
	return results
}

// sortedCopy is the copy+sort each legacy statistic paid for on its own.
func sortedCopy(data []float64) []float64 {
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return sorted
}

func legacySelectAndPolish(b testing.TB, data []float64) float64 {
	results := legacyFitAll(data)
	best := results[0]
	if best.Err != nil {
		b.Fatal(best.Err)
	}
	p, ok := best.Dist.(dist.Parametric)
	if !ok {
		return best.KS
	}
	_, ks := dist.KSPolishFullScan(p, data, 20)
	return ks
}

func sampleSelectAndPolish(b testing.TB, data []float64) float64 {
	s := dist.NewSample(data)
	results := dist.FitAll(s, nil, 1)
	best := results[0]
	if best.Err != nil {
		b.Fatal(best.Err)
	}
	p, ok := best.Dist.(dist.Parametric)
	if !ok {
		return best.KS
	}
	_, ks, _, err := dist.KSPolish(p, s, 20)
	if err != nil {
		b.Fatal(err)
	}
	return ks
}

func BenchmarkFitLegacy(b *testing.B) {
	data := benchSeries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = legacySelectAndPolish(b, data)
	}
}

func BenchmarkFitSample(b *testing.B) {
	data := benchSeries(b)
	// Median of three legacy runs sampled outside the timer: the baseline
	// for the speedup metric, robust to a single scheduling stall.
	var samples []time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		_ = legacySelectAndPolish(b, data)
		samples = append(samples, time.Since(t0))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	legacy := samples[1]

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sampleSelectAndPolish(b, data)
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(legacy.Nanoseconds())/perIter, "speedup")
	}
}

// TestLegacyAndSamplePathsAgree guards the benchmark pair itself: both
// sides must select the same family and land on the same polished KS, so
// the speedup compares equal work.
func TestLegacyAndSamplePathsAgree(t *testing.T) {
	data := benchSeries(t)
	legacy := legacyFitAll(data)
	viaSample := dist.FitAll(dist.NewSample(data), nil, 1)
	if legacy[0].Family != viaSample[0].Family {
		t.Fatalf("winners differ: legacy %s, sample %s", legacy[0].Family, viaSample[0].Family)
	}
	// The reconstructed legacy Weibull solves the shape equation with a
	// numeric derivative, so its root can differ from the analytic-derivative
	// path in the last few ulps; the KS statistics must still agree to well
	// below any model-selection margin.
	if d := math.Abs(legacy[0].KS - viaSample[0].KS); d > 1e-9 {
		t.Fatalf("winner KS differs by %v: legacy %v, sample %v", d, legacy[0].KS, viaSample[0].KS)
	}
}
