package dist

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/par"
)

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

// FitAll fits every candidate family (nil = DefaultFitters) to a Sample and
// returns the results ranked best-first by KS statistic (the paper's
// goodness-of-fit criterion), with AIC as a tiebreaker. Families that fail
// to fit sort last and carry Err. No candidate copies or re-sorts the data,
// and the KS/AD/likelihood statistics are computed allocation-free over the
// shared sorted view.
//
// The candidates fan out over at most workers goroutines (≤ 0 means
// GOMAXPROCS). Each worker owns one CDF table with a slot per distinct
// value, which its fits' KS and AD share. Each family's fit is independent
// and lands in its fitter's slot before the stable sort, so the ranking is
// identical for any worker count.
func FitAll(s *Sample, fitters []Fitter, workers int) []FitResult {
	if len(fitters) == 0 {
		fitters = DefaultFitters()
	}
	results := make([]FitResult, len(fitters))
	xs, _ := s.ECDFPoints()
	w := min(par.Workers(workers), len(fitters))
	// A pool of w tables: a fit takes one and puts it back, so at most w
	// are out at once and no send blocks.
	tables := make(chan []float64, w)
	for k := 0; k < w; k++ {
		tables <- make([]float64, len(xs))
	}
	if err := par.ForEach(context.Background(), len(fitters), w, func(i int) error {
		cdf := <-tables
		results[i] = fitOne(fitters[i], s, cdf)
		tables <- cdf
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
// statistics from the shared sorted sample, with cdf as the scratch CDF
// table. The log-likelihood is computed once and reused for AIC and BIC.
func fitOne(f Fitter, s *Sample, cdf []float64) FitResult {
	r := FitResult{Family: f.FamilyName()}
	d, err := f.Fit(s)
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
	r.KS, r.AD = s.goodnessOfFit(d, cdf)
	r.PValue = KolmogorovPValue(r.KS, s.N())
	r.LogL = s.LogLikelihood(d)
	r.AIC = 2*float64(d.NumParams()) - 2*r.LogL
	r.BIC = float64(d.NumParams())*math.Log(float64(s.N())) - 2*r.LogL
	return r
}

// SelectBest fits every candidate family to a Sample and returns the
// winner by KS statistic. It errors only if no family fits.
func SelectBest(s *Sample, fitters []Fitter) (FitResult, error) {
	results := FitAll(s, fitters, 0)
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
	case nil:
		return "<nil>"
	default:
		return fmt.Sprintf("%v", d)
	}
}
