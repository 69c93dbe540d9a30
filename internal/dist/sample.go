package dist

import (
	"math"
	"sort"
	"sync"

	"repro/internal/stats"
)

// Sample is an immutable, sort-once view of a float64 series. It carries the
// ascending-sorted data plus one-pass sufficient statistics — n, Σx, Σln x,
// Σ1/x, min — and stable two-pass central moments, so
// the fitting stack can estimate every candidate family and compute
// goodness-of-fit statistics without re-copying, re-sorting, or re-deriving
// moments per family.
//
// A Sample never mutates its data after construction and is safe for
// concurrent use. The slice returned by Sorted is shared, not copied;
// callers must treat it as read-only.
//
// Sufficient-statistics contract: the sum, Min, Mean and variance are valid
// whenever the data is finite (no NaN/±Inf); the log- and reciprocal-based
// statistics (SumLog, SumInv, MeanLog, VarLog) are valid only when every
// point is strictly positive, and are NaN otherwise. A sample that cannot be
// fitted (too few points, non-finite values) makes every fit return why.
type Sample struct {
	sorted []float64 // ascending; shared with Sorted callers

	sum    float64 // Σx
	sumLog float64 // Σ ln x (NaN unless all x > 0)
	sumInv float64 // Σ 1/x  (NaN unless all x > 0)
	min    float64

	mean, variance  float64 // two-pass population moments
	meanLog, varLog float64 // two-pass moments of ln x (NaN unless all x > 0)

	positive bool  // every point > 0
	err      error // nil, ErrTooFewPoints, or ErrBadSample (NaN/Inf present)

	ecdfOnce sync.Once
	ecdfX    []float64 // distinct sorted values
	ecdfF    []float64 // F_n at each distinct value
}

// NewSample copies data, sorts the copy ascending, and precomputes the
// sufficient statistics. The input is never mutated.
func NewSample(data []float64) *Sample {
	sorted := append([]float64(nil), data...)
	stats.SortFloat64s(sorted)
	return newSampleOwned(sorted)
}

// NewSampleSorted builds a Sample around an already-sorted series without
// copying it; the Sample takes ownership and the caller must not mutate the
// slice afterwards. Unsorted input is detected (one O(n) scan) and handled
// by falling back to a private sorted copy, so the constructor is safe
// either way.
func NewSampleSorted(sorted []float64) *Sample {
	if !sort.Float64sAreSorted(sorted) {
		cp := append([]float64(nil), sorted...)
		stats.SortFloat64s(cp)
		sorted = cp
	}
	return newSampleOwned(sorted)
}

// newSampleOwned computes the statistics over a sorted slice the Sample owns.
//
//mira:hotpath
func newSampleOwned(sorted []float64) *Sample {
	s := &Sample{sorted: sorted}
	n := len(sorted)
	if n == 0 {
		s.err = ErrTooFewPoints
		s.min = math.NaN()
		s.setLogStatsNaN()
		s.mean, s.variance = math.NaN(), math.NaN()
		return s
	}
	s.min = sorted[0]
	s.positive = true
	finite := true
	for _, x := range sorted {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			finite = false
		}
		if x <= 0 {
			s.positive = false
		}
		s.sum += x
	}
	if !finite {
		s.err = ErrBadSample
		s.setLogStatsNaN()
		s.mean, s.variance = math.NaN(), math.NaN()
		return s
	}
	if n < 2 {
		s.err = ErrTooFewPoints
	}
	s.mean = s.sum / float64(n)
	if s.positive {
		for _, x := range sorted {
			l := math.Log(x)
			s.sumLog += l
			s.sumInv += 1 / x
		}
		s.meanLog = s.sumLog / float64(n)
	} else {
		s.setLogStatsNaN()
	}
	// Second pass: centered sums, numerically stable for tight samples
	// (Σx² − n·mean² cancels catastrophically; Σ(x−mean)² does not).
	var ss, ssLog float64
	for _, x := range sorted {
		d := x - s.mean
		ss += d * d
		if s.positive {
			dl := math.Log(x) - s.meanLog
			ssLog += dl * dl
		}
	}
	s.variance = ss / float64(n)
	if s.positive {
		s.varLog = ssLog / float64(n)
	}
	return s
}

func (s *Sample) setLogStatsNaN() {
	nan := math.NaN()
	s.sumLog, s.sumInv = nan, nan
	s.meanLog, s.varLog = nan, nan
}

// N returns the sample size.
func (s *Sample) N() int { return len(s.sorted) }

// Sorted returns the ascending-sorted data. The slice is shared with the
// Sample — callers must not mutate it.
func (s *Sample) Sorted() []float64 { return s.sorted }

// Min returns the smallest point.
func (s *Sample) Min() float64 { return s.min }

// SumLog returns Σ ln x (NaN unless all points are positive).
func (s *Sample) SumLog() float64 { return s.sumLog }

// SumInv returns Σ 1/x (NaN unless all points are positive) — the extra
// sufficient statistic the inverse-Gaussian closed-form MLE needs.
func (s *Sample) SumInv() float64 { return s.sumInv }

// Mean returns the arithmetic mean.
func (s *Sample) Mean() float64 { return s.mean }

// MeanLog returns mean(ln x) (NaN unless all points are positive).
func (s *Sample) MeanLog() float64 { return s.meanLog }

// VarLog returns the population variance of ln x (NaN unless all points are
// positive).
func (s *Sample) VarLog() float64 { return s.varLog }

// moments is the validation every fitter runs first: n ≥ 2, finite data,
// and (when positive is set) a strictly positive support.
func (s *Sample) moments(positive bool) (n int, mean, variance float64, err error) {
	if s.err != nil {
		return 0, 0, 0, s.err
	}
	if positive && !s.positive {
		return 0, 0, 0, ErrBadSample
	}
	return len(s.sorted), s.mean, s.variance, nil
}

// ECDFPoints returns the empirical CDF's step points (x, F_n(x)) at every
// distinct sample value, built lazily on first use and memoized; concurrent
// callers share one build.
func (s *Sample) ECDFPoints() (xs, fs []float64) {
	s.ecdfOnce.Do(func() {
		n := float64(len(s.sorted))
		for i := 0; i < len(s.sorted); i++ {
			if i+1 < len(s.sorted) && s.sorted[i+1] == s.sorted[i] {
				continue // collapse ties to the last occurrence
			}
			s.ecdfX = append(s.ecdfX, s.sorted[i])
			s.ecdfF = append(s.ecdfF, float64(i+1)/n)
		}
	})
	return s.ecdfX, s.ecdfF
}

// goodnessOfFit returns the one-sample Kolmogorov–Smirnov statistic and
// the Anderson–Darling statistic A² of the sample against d from one table
// of CDF values (fillCDF), so the CDF is evaluated once per distinct value
// for both statistics. cdf is caller-owned scratch with room for every
// distinct value; it is overwritten. Both statistics are NaN for an empty
// sample. AD weights the tails more heavily than KS, so the two
// disagreeing flags a tail mismatch.
//
//mira:hotpath
func (s *Sample) goodnessOfFit(d Distribution, cdf []float64) (ks, ad float64) {
	if len(s.sorted) == 0 {
		return math.NaN(), math.NaN()
	}
	cdf = s.fillCDF(d, cdf)
	ks, _ = s.ksFromTable(cdf)
	return ks, s.adFromTable(cdf)
}

// fillCDF sets cdf[k] to d.CDF at the k-th distinct value (ECDFPoints) and
// returns the filled prefix.
//
//mira:hotpath
func (s *Sample) fillCDF(d Distribution, cdf []float64) []float64 {
	xs, _ := s.ECDFPoints()
	cdf = cdf[:len(xs)]
	for k, x := range xs {
		cdf[k] = d.CDF(x)
	}
	return cdf
}

// ksFromTable returns the KS statistic from a filled CDF table and at, the
// index of the distinct value where the deviation first reaches it (0 when
// it stays 0). Within a run of tied points |F_n − F| is extremal at the run
// boundaries, and the boundary fractions are the same float64(i)/float64(n)
// quotients a per-point scan forms, so the statistic is that scan's bits.
//
//mira:hotpath
func (s *Sample) ksFromTable(cdf []float64) (ks float64, at int) {
	_, fs := s.ECDFPoints()
	prev := 0.0 // F_n just below the first distinct value
	for k, f := range cdf {
		if lo := math.Abs(f - prev); lo > ks {
			ks, at = lo, k
		}
		if hi := math.Abs(fs[k] - f); hi > ks {
			ks, at = hi, k
		}
		prev = fs[k]
	}
	return ks, at
}

// adFromTable returns A² from the CDF table goodnessOfFit filled: +Inf when
// a point falls outside d's support (F = 0 or 1). The forward cursor (point
// i) and the backward cursor (point n−1−i) each index the table, stepping
// to the next distinct value exactly where ECDFPoints starts a new one; the
// forward cursor keeps ln F and the backward one ln(1−F) for its current
// run of tied points. The sum still
// adds (2i+1)·(ln F_i + ln(1−F_{n−1−i})) in index order, so the statistic
// is bit-identical to two CDF evaluations per point. (Tied values are equal
// under ==; the only equal values with different bits are ±0, where every
// family's CDF is 0.)
//
//mira:hotpath
func (s *Sample) adFromTable(cdf []float64) float64 {
	sorted := s.sorted
	n := len(sorted)
	lo, hi := 0, len(cdf)-1
	if cdf[lo] <= 0 || cdf[hi] >= 1 {
		return math.Inf(1)
	}
	logLo, logHi := math.Log(cdf[lo]), math.Log1p(-cdf[hi])
	sum := 0.0
	for i := 0; i < n; i++ {
		if i > 0 {
			if sorted[i] != sorted[i-1] {
				lo++
				if cdf[lo] <= 0 {
					return math.Inf(1)
				}
				logLo = math.Log(cdf[lo])
			}
			if j := n - 1 - i; sorted[j] != sorted[j+1] {
				hi--
				if cdf[hi] >= 1 {
					return math.Inf(1)
				}
				logHi = math.Log1p(-cdf[hi])
			}
		}
		sum += float64(2*i+1) * (logLo + logHi)
	}
	return -float64(n) - sum/float64(n)
}

// ksBelow reports whether the KS statistic of d is strictly below bound,
// returning the exact statistic and the index of its peak (as ksFromTable)
// when it is. It first evaluates the distinct value probe, where the
// incumbent's deviation peaked: a candidate that is no better usually
// deviates at least as much there, and then the scan ends after one CDF
// call. Otherwise the
// full scan aborts as soon as the running maximum reaches bound. The
// statistic is a maximum, so it can only be ≥ any one deviation or prefix
// maximum, and the order of evaluation changes neither the accept/reject
// decision nor the exact value on accept. This is the branch-and-bound core
// of the KS-polish coordinate descent, where nearly every candidate is a
// rejection.
//
//mira:hotpath
func (s *Sample) ksBelow(d Distribution, bound float64, probe int) (ks float64, at int, ok bool) {
	xs, fs := s.ECDFPoints()
	f, prev := d.CDF(xs[probe]), 0.0
	if probe > 0 {
		prev = fs[probe-1]
	}
	if math.Abs(f-prev) >= bound || math.Abs(fs[probe]-f) >= bound {
		return 0, probe, false
	}
	prev = 0
	for k, x := range xs {
		f := d.CDF(x)
		if lo := math.Abs(f - prev); lo > ks {
			ks, at = lo, k
		}
		if hi := math.Abs(fs[k] - f); hi > ks {
			ks, at = hi, k
		}
		if ks >= bound {
			return ks, at, false
		}
		prev = fs[k]
	}
	return ks, at, true
}

// LogLikelihood returns Σ ln f(x_i) over the sample. For the families whose
// log-density is linear in the precomputed sufficient statistics
// (exponential, gamma/Erlang, Pareto, log-normal, inverse Gaussian) it is
// evaluated in closed form with zero passes over the data; Weibull falls
// back to one O(n) scan of the sorted view.
//
//mira:hotpath
func (s *Sample) LogLikelihood(d Distribution) float64 {
	n := float64(len(s.sorted))
	if n == 0 {
		return 0
	}
	if s.err == ErrBadSample {
		// NaN/Inf present: only the per-point scan gives the exact sum.
		return LogLikelihood(d, s.sorted)
	}
	switch v := d.(type) {
	case Exponential:
		if s.min < 0 {
			return math.Inf(-1)
		}
		return n*math.Log(v.Rate) - v.Rate*s.sum
	case Pareto:
		if s.min < v.Xm {
			return math.Inf(-1)
		}
		return n*(math.Log(v.Alpha)+v.Alpha*math.Log(v.Xm)) - (v.Alpha+1)*s.sumLog
	case LogNormal:
		if !s.positive {
			return math.Inf(-1)
		}
		// Σz² with z = (ln x − μ)/σ, via the stable centered moments:
		// Σ(ln x − μ)² = n·(VarLog + (MeanLog − μ)²).
		dm := s.meanLog - v.Mu
		zz := n * (s.varLog + dm*dm) / (v.Sigma * v.Sigma)
		return -zz/2 - s.sumLog - n*math.Log(v.Sigma) - 0.5*n*math.Log(2*math.Pi)
	case Gamma:
		return s.gammaLogLikelihood(v.Shape, v.Rate)
	case Erlang:
		return s.gammaLogLikelihood(float64(v.K), v.Rate)
	case InverseGaussian:
		if !s.positive {
			return math.Inf(-1)
		}
		// Σ(x−μ)²/x = Σx − 2nμ + μ²Σ1/x.
		q := s.sum - 2*v.Mu*n + v.Mu*v.Mu*s.sumInv
		return 0.5*n*math.Log(v.Lambda/(2*math.Pi)) - 1.5*s.sumLog - v.Lambda*q/(2*v.Mu*v.Mu)
	default:
		return LogLikelihood(d, s.sorted)
	}
}

// gammaLogLikelihood is the closed-form gamma/Erlang log-likelihood
// n·k·lnβ + (k−1)·Σln x − β·Σx − n·lnΓ(k).
func (s *Sample) gammaLogLikelihood(shape, rate float64) float64 {
	if !s.positive {
		return math.Inf(-1)
	}
	n := float64(len(s.sorted))
	return n*shape*math.Log(rate) + (shape-1)*s.sumLog - rate*s.sum - n*lnGamma(shape)
}
