package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/raslog"
)

// MTTIResult is the outcome of the mean-time-to-interruption analysis —
// the paper's "MTTI ≈ 3.5 days" headline.
type MTTIResult struct {
	SpanDays      float64
	RawFatal      int       // unfiltered FATAL event count
	Incidents     Incidents // filtered job-interrupting incidents
	Interruptions int       // Incidents.Len()
	MTTIDays      float64   // span / interruptions
	MTBFRawDays   float64   // baseline: span / raw FATAL count
	// Intervals are the gaps between consecutive interruptions, in hours,
	// in time order.
	Intervals []float64
	// IntervalSample is the sorted view of Intervals with precomputed
	// sufficient statistics — the series the best-fit selection ran on,
	// reusable for CDF figures without another sort. Nil when there are no
	// intervals.
	IntervalSample *dist.Sample
	// BestFit is the best-fitting distribution of the interruption
	// intervals (hours), per KS model selection.
	BestFit dist.FitResult
}

// MTTI computes the mean time to interruption: FATAL events that affected a
// job (nonzero job attribution) are coalesced by the similarity rule into
// interruption incidents; MTTI is the observation span divided by the
// incident count. The raw-MTBF baseline shows how misleading the
// unfiltered stream is.
func (d *Dataset) MTTI(rule FilterRule) (*MTTIResult, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	// Coalesce the job-affecting FATALs: the FATAL view's memoized keys,
	// restricted to the events with a job attribution, in time order.
	raw := len(d.fatalIdx)
	ik := d.filterKeys(raslog.Fatal, d.fatalIdx, rule)
	v := d.EventView()
	var jobIdx []int
	jobKeys := internedKeys{nKeys: ik.nKeys}
	for n, i := range d.fatalIdx {
		if v.JobID[i] != 0 {
			jobIdx = append(jobIdx, i)
			jobKeys.ids = append(jobKeys.ids, ik.ids[n])
		}
	}
	incidents := coalesce(v.TimeUnix, v.JobID, jobIdx, jobKeys, rule.Window)
	res := &MTTIResult{
		SpanDays:  d.Days(),
		RawFatal:  raw,
		Incidents: incidents,
	}
	res.Interruptions = incidents.Len()
	if res.Interruptions > 0 {
		res.MTTIDays = res.SpanDays / float64(res.Interruptions)
	}
	if raw > 0 {
		res.MTBFRawDays = res.SpanDays / float64(raw)
	}
	if first := incidents.First; len(first) >= 3 {
		res.Intervals = make([]float64, 0, len(first)-1)
		for i := 1; i < len(first); i++ {
			if gap := first[i] - first[i-1]; gap > 0 {
				res.Intervals = append(res.Intervals, (time.Duration(gap) * time.Second).Hours())
			}
		}
		if len(res.Intervals) > 0 {
			res.IntervalSample = dist.NewSample(res.Intervals)
		}
		if len(res.Intervals) >= 10 {
			best, err := dist.SelectBest(res.IntervalSample, nil)
			if err != nil {
				return nil, fmt.Errorf("core: fit interruption intervals: %w", err)
			}
			res.BestFit = best
		}
	}
	return res, nil
}

// InterruptedJobs returns the distinct job ids attributed to filtered
// interruption incidents, in increasing order (nil when there are none).
func (r *MTTIResult) InterruptedJobs() []int64 {
	if len(r.Incidents.jobIDs) == 0 {
		return nil
	}
	out := slices.Clone(r.Incidents.jobIDs)
	slices.Sort(out)
	return slices.Compact(out)
}

// LostCoreHours estimates the core-hours consumed by jobs that were
// interrupted by the system — work that produced no result.
func (d *Dataset) LostCoreHours(r *MTTIResult) float64 {
	total := 0.0
	for _, id := range r.InterruptedJobs() {
		if p, ok := d.jobPos(id); ok {
			total += d.jobView.CoreHours(p)
		}
	}
	return total
}
