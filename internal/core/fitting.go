package core

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/joblog"
	"repro/internal/stats"
)

// FamilyFit is the distribution-fitting result for one exit family — one
// row of the paper's best-fit table (E6).
type FamilyFit struct {
	Family  joblog.ExitFamily
	N       int              // failed jobs in the family
	Results []dist.FitResult // ranked best-first by KS
	// Summary are the descriptive statistics of the same sample, computed
	// from the sorted view without an extra copy.
	Summary stats.Summary
}

// Best returns the winning fit.
func (f *FamilyFit) Best() dist.FitResult {
	if len(f.Results) == 0 {
		return dist.FitResult{}
	}
	return f.Results[0]
}

// FitOptions tunes the per-family fitting.
type FitOptions struct {
	// MinSamples skips families with fewer failed jobs (default 50).
	MinSamples int
	// MaxSamples caps the per-family sample (0 = unlimited). Fitting is
	// O(n) per candidate; the cap keeps interactive runs fast without
	// changing the winner on large corpora.
	MaxSamples int
	// Parallelism bounds the workers fitting the candidate families of one
	// exit family (≤ 0 = GOMAXPROCS). The ranking is identical at any
	// setting.
	Parallelism int
}

// FitExecutionLengths fits the candidate distribution families to the
// execution lengths (seconds) of failed jobs, one fit per exit family,
// reproducing the paper's "best-fit depends on the exit code" analysis.
// Families are returned in joblog.FailureFamilies order; families with too
// few samples are skipped. It reads a fresh order layer's FailureRuntimes;
// JobOrders.FitExecutionLengths shares a pass's.
func (d *Dataset) FitExecutionLengths(opt FitOptions) ([]FamilyFit, error) {
	return NewJobOrders(d).FitExecutionLengths(opt)
}

// FitExecutionLengths is Dataset.FitExecutionLengths over the layer's
// FailureRuntimes.
func (o *JobOrders) FitExecutionLengths(opt FitOptions) ([]FamilyFit, error) {
	if opt.MinSamples <= 0 {
		opt.MinSamples = 50
	}
	runtimes := o.FailureRuntimes()
	var out []FamilyFit
	for _, fam := range joblog.FailureFamilies() {
		data := runtimes[joblog.FamilyCode(fam)]
		if len(data) < opt.MinSamples {
			continue
		}
		if opt.MaxSamples > 0 {
			data = Thin(data, opt.MaxSamples)
		}
		// One Sample per family: sorted once (a copy, so the shared series
		// keeps its job order), sufficient statistics shared by every
		// candidate fit and goodness-of-fit statistic.
		sample := dist.NewSample(data)
		results := dist.FitAll(sample, nil, opt.Parallelism)
		if len(results) == 0 {
			return nil, fmt.Errorf("core: no fit results for family %s", fam)
		}
		summary, err := stats.SummarizeSorted(sample.Sorted())
		if err != nil {
			return nil, fmt.Errorf("core: summarize family %s: %w", fam, err)
		}
		out = append(out, FamilyFit{Family: fam, N: sample.N(), Results: results, Summary: summary})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("core: no exit family had ≥%d failed jobs", opt.MinSamples)
	}
	return out, nil
}

// FailureRuntimes returns the execution lengths (seconds) of the failed
// jobs with a positive runtime, indexed by dense exit-family code
// (joblog.FamilyCode; the success slot is empty), each in job order. One
// walk over the job view's Family and DurSec columns builds every family's
// series, shared by every holder of the layer: E6's fits and its polish
// ablation thin the same series. A corpus has whole-second times, so
// float64(DurSec) is the job's Runtime().Seconds(). Callers must not
// modify the slices. Each series is allocated once, at its exact length.
func (o *JobOrders) FailureRuntimes() *[joblog.NumFamilies][]float64 {
	rt, _ := o.failRt.Get(func() (*[joblog.NumFamilies][]float64, error) {
		v := o.d.JobView()
		var n [joblog.NumFamilies]int
		for i, f := range v.Family {
			if f != 0 && v.DurSec[i] > 0 {
				n[f]++
			}
		}
		rt := new([joblog.NumFamilies][]float64)
		for f, c := range n {
			rt[f] = make([]float64, 0, c)
		}
		for i, f := range v.Family {
			if d := v.DurSec[i]; f != 0 && d > 0 {
				rt[f] = append(rt[f], float64(d))
			}
		}
		return rt, nil
	})
	return rt
}

// Thin deterministically subsamples data down to k points (every n/k-th
// point of the original order), preserving the distribution. Data with at
// most k points is returned as is.
func Thin(data []float64, k int) []float64 {
	n := len(data)
	if n <= k {
		return data
	}
	out := make([]float64, 0, k)
	step := float64(n) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, data[int(float64(i)*step)])
	}
	return out
}

// ExecutionLengthCDFs returns the execution-length samples (seconds) of
// succeeded and failed jobs, each sorted ascending — the data behind the
// paper's CDF comparison figure (E5). It is one filtered walk over the
// shared runtime order. The sorted order lets callers wrap the slices in
// dist.NewSampleSorted / stats.NewECDFSorted without another copy or sort.
func (o *JobOrders) ExecutionLengthCDFs() (succeeded, failed []float64) {
	v := o.d.JobView()
	fam, dur := v.Family, v.DurSec
	nSucc, nFail := 0, 0
	for i, d := range dur {
		switch {
		case d <= 0:
		case fam[i] == 0:
			nSucc++
		default:
			nFail++
		}
	}
	succeeded, failed = make([]float64, 0, nSucc), make([]float64, 0, nFail)
	for _, r := range o.runtimeCol().order {
		if dur[r] <= 0 {
			continue
		}
		sec := float64(dur[r])
		if fam[r] == 0 {
			succeeded = append(succeeded, sec)
		} else {
			failed = append(failed, sec)
		}
	}
	return succeeded, failed
}
