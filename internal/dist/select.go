package dist

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/par"
)

// KSStatistic returns the one-sample Kolmogorov–Smirnov statistic
// D_n = sup_x |F_n(x) − F(x)| between the empirical CDF of data and the
// distribution d. The input need not be sorted; it is copied and sorted
// once. Callers that already hold sorted data (or a Sample) should use
// KSStatisticSorted, which allocates nothing.
func KSStatistic(d Distribution, data []float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	return KSStatisticSorted(d, sorted)
}

// KSStatisticSorted is KSStatistic over ascending-sorted data. It is the
// shared zero-allocation core of KSStatistic, KSPolish and the model
// selection in FitAllSampleParallel.
//
//mira:hotpath
func KSStatisticSorted(d Distribution, sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	maxD := 0.0
	for i, x := range sorted {
		f := d.CDF(x)
		if lo := math.Abs(f - float64(i)/float64(n)); lo > maxD {
			maxD = lo
		}
		if hi := math.Abs(float64(i+1)/float64(n) - f); hi > maxD {
			maxD = hi
		}
	}
	return maxD
}

// ADStatistic returns the Anderson–Darling statistic A² of the sample
// against d. AD weights the tails more heavily than KS, so the two
// statistics disagreeing flags a tail mismatch. Returns NaN for an empty
// sample or +Inf when a point falls outside d's support (F = 0 or 1).
// The input need not be sorted; ADStatisticSorted is the allocation-free
// core for pre-sorted data.
func ADStatistic(d Distribution, data []float64) float64 {
	if len(data) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(data))
	copy(sorted, data)
	sort.Float64s(sorted)
	return ADStatisticSorted(d, sorted)
}

// ADStatisticSorted is ADStatistic over ascending-sorted data, with zero
// allocations.
//
// Runtime samples are heavily tied, so the forward cursor (i) and the
// backward cursor (n−1−i) each keep ln F and ln(1−F) for their current run
// of equal values and call CDF once per run. Runs are keyed by the exact
// bits of the value, CDF is a pure function, and the sum still adds
// (2i+1)·(ln F_i + ln(1−F_{n−1−i})) in index order, so the statistic is
// bit-identical to one CDF evaluation per point per side.
//
//mira:hotpath
func ADStatisticSorted(d Distribution, sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	// Start each run key one bit off its side's first value, so the first
	// point of each side opens a run.
	loBits, hiBits := math.Float64bits(sorted[0])^1, math.Float64bits(sorted[n-1])^1
	var logLo, logHi float64
	sum := 0.0
	for i := 0; i < n; i++ {
		if b := math.Float64bits(sorted[i]); b != loBits {
			fi := d.CDF(sorted[i])
			if fi <= 0 {
				return math.Inf(1)
			}
			loBits, logLo = b, math.Log(fi)
		}
		if b := math.Float64bits(sorted[n-1-i]); b != hiBits {
			fj := d.CDF(sorted[n-1-i])
			if fj >= 1 {
				return math.Inf(1)
			}
			hiBits, logHi = b, math.Log1p(-fj)
		}
		sum += float64(2*i+1) * (logLo + logHi)
	}
	return -float64(n) - sum/float64(n)
}

// FitResult is the outcome of fitting one candidate family to a sample.
type FitResult struct {
	Family string       // family name, e.g. "weibull"
	Dist   Distribution // the fitted distribution (nil if Err != nil)
	KS     float64      // one-sample KS statistic
	AD     float64      // Anderson–Darling A² (tail-sensitive check)
	PValue float64      // asymptotic KS p-value
	LogL   float64      // log-likelihood
	AIC    float64
	BIC    float64
	Err    error // non-nil if the family could not be fitted
}

// DefaultFitters returns the candidate set the paper's model selection uses:
// exponential, Erlang, gamma, Weibull, Pareto, lognormal, inverse Gaussian.
func DefaultFitters() []Fitter {
	return []Fitter{
		ExponentialFitter{},
		ErlangFitter{},
		GammaFitter{},
		WeibullFitter{},
		ParetoFitter{},
		LogNormalFitter{},
		InverseGaussianFitter{},
	}
}

// FitAllSampleParallel fits every candidate family (nil = DefaultFitters)
// to a precomputed Sample and returns the results ranked best-first by KS
// statistic (the paper's goodness-of-fit criterion), with AIC as a
// tiebreaker. Families that fail to fit sort last and carry Err. No
// candidate copies or re-sorts the data, and the KS/AD/likelihood
// statistics are computed allocation-free over the shared sorted view.
//
// The candidates fan out over at most workers goroutines (≤ 0 means
// GOMAXPROCS). Each family's fit is independent and lands in its fitter's
// slot before the stable sort, so the ranking is identical for any worker
// count.
func FitAllSampleParallel(s *Sample, fitters []Fitter, workers int) []FitResult {
	if len(fitters) == 0 {
		fitters = DefaultFitters()
	}
	results := make([]FitResult, len(fitters))
	if err := par.ForEach(context.Background(), len(fitters), workers, func(i int) error {
		results[i] = fitOne(fitters[i], s)
		return nil
	}); err != nil {
		// fitOne reports failures through FitResult.Err; the only error
		// ForEach can surface here is a captured panic in a fitter.
		panic(err)
	}
	sort.SliceStable(results, func(i, j int) bool {
		ri, rj := results[i], results[j]
		if ri.Err != nil && rj.Err != nil {
			return false
		}
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

// fitOne fits a single candidate family and computes its goodness-of-fit
// statistics from the shared sorted sample. The log-likelihood is computed
// once and reused for AIC and BIC (the slice path recomputed it three
// times).
func fitOne(f Fitter, s *Sample) FitResult {
	r := FitResult{Family: f.FamilyName()}
	d, err := fitWith(f, s)
	if err != nil {
		r.Err = err
		r.KS = math.Inf(1)
		r.AD = math.Inf(1)
		r.AIC = math.Inf(1)
		r.BIC = math.Inf(1)
		r.LogL = math.Inf(-1)
		return r
	}
	r.Dist = d
	r.KS = s.KSStatistic(d)
	r.AD = ADStatisticSorted(d, s.Sorted())
	r.PValue = KolmogorovPValue(r.KS, s.N())
	r.LogL = s.LogLikelihood(d)
	r.AIC = 2*float64(d.NumParams()) - 2*r.LogL
	r.BIC = float64(d.NumParams())*math.Log(float64(s.N())) - 2*r.LogL
	return r
}

// SelectBestSample fits every candidate family to a precomputed Sample and
// returns the winner by KS statistic. It errors only if no family fits.
func SelectBestSample(s *Sample, fitters []Fitter) (FitResult, error) {
	results := FitAllSampleParallel(s, fitters, 0)
	if len(results) == 0 || results[0].Err != nil {
		return FitResult{}, fmt.Errorf("dist: no candidate family fits the sample (n=%d)", s.N())
	}
	return results[0], nil
}

// ParamString formats a fitted distribution's parameters for reports.
func ParamString(d Distribution) string {
	switch v := d.(type) {
	case Exponential:
		return fmt.Sprintf("rate=%.4g", v.Rate)
	case Weibull:
		return fmt.Sprintf("shape=%.4g scale=%.4g", v.Shape, v.Scale)
	case Pareto:
		return fmt.Sprintf("xm=%.4g alpha=%.4g", v.Xm, v.Alpha)
	case LogNormal:
		return fmt.Sprintf("mu=%.4g sigma=%.4g", v.Mu, v.Sigma)
	case Gamma:
		return fmt.Sprintf("shape=%.4g rate=%.4g", v.Shape, v.Rate)
	case Erlang:
		return fmt.Sprintf("k=%d rate=%.4g", v.K, v.Rate)
	case InverseGaussian:
		return fmt.Sprintf("mu=%.4g lambda=%.4g", v.Mu, v.Lambda)
	case Normal:
		return fmt.Sprintf("mu=%.4g sigma=%.4g", v.Mu, v.Sigma)
	case nil:
		return "<nil>"
	default:
		return fmt.Sprintf("%v", d)
	}
}
