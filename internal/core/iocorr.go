package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/joblog"
	"repro/internal/stats"
)

// IOCorrelation compares the I/O behavior of succeeded and failed jobs
// (experiment E13) over the jobs that have a Darshan-style record.
type IOCorrelation struct {
	SampledJobs   int
	SuccessBytes  stats.Summary // total bytes moved, succeeded jobs
	FailedBytes   stats.Summary // total bytes moved, failed jobs
	SuccessIOSecs stats.Summary
	FailedIOSecs  stats.Summary
	// MedianRatio is median(success bytes) / median(failed bytes): > 1
	// means failed jobs move less data (they die before doing their I/O).
	MedianRatio float64
	// KSBytes is the two-sample KS distance between the two byte
	// distributions; large values mean clearly different I/O behavior.
	KSBytes float64
	// SpearmanBytesOutcome is the rank correlation between bytes moved and
	// success (0/1).
	SpearmanBytesOutcome float64
}

// IOBehavior computes E13's I/O-vs-outcome comparison over the jobs with
// an I/O record. One order by bytes and one by I/O time, both taken on the
// integer columns the float values grow with, feed the four summaries, the
// KS distance and the Spearman ranks.
func (d *Dataset) IOBehavior() (*IOCorrelation, error) {
	rows := make([]int32, 0, len(d.IO))
	bytesKey, secsKey := make([]int64, 0, len(d.IO)), make([]int64, 0, len(d.IO))
	for i, p := range d.ioOf {
		if p < 0 {
			continue
		}
		rec := &d.IO[p]
		rows = append(rows, int32(i))
		bytesKey = append(bytesKey, rec.TotalBytes())
		secsKey = append(secsKey, int64(rec.IOTime))
	}
	m := len(rows)
	success := make([]float64, m)
	okN := 0
	exit := d.JobView().Exit
	for k, r := range rows {
		if exit[r] == joblog.ExitSuccess {
			success[k] = 1
			okN++
		}
	}
	if okN == 0 || okN == m {
		return nil, fmt.Errorf("core: need I/O records for both outcomes (ok=%d fail=%d)", okN, m-okN)
	}
	// split walks order and appends each sampled job's value to its
	// outcome's series, which therefore comes out ascending.
	split := func(order []int32, val func(k int32) float64) (ok, fail []float64) {
		ok, fail = make([]float64, 0, okN), make([]float64, 0, m-okN)
		for _, k := range order {
			if success[k] == 1 {
				ok = append(ok, val(k))
			} else {
				fail = append(fail, val(k))
			}
		}
		return ok, fail
	}
	bytesOrder, secsOrder := stats.KeyOrder(bytesKey), stats.KeyOrder(secsKey)
	okBytes, failBytes := split(bytesOrder, func(k int32) float64 { return float64(bytesKey[k]) })
	okSecs, failSecs := split(secsOrder, func(k int32) float64 { return time.Duration(secsKey[k]).Seconds() })

	res := &IOCorrelation{SampledJobs: m}
	var err error
	if res.SuccessBytes, err = stats.SummarizeSorted(okBytes); err != nil {
		return nil, err
	}
	if res.FailedBytes, err = stats.SummarizeSorted(failBytes); err != nil {
		return nil, err
	}
	if res.SuccessIOSecs, err = stats.SummarizeSorted(okSecs); err != nil {
		return nil, err
	}
	if res.FailedIOSecs, err = stats.SummarizeSorted(failSecs); err != nil {
		return nil, err
	}
	if res.FailedBytes.Median > 0 {
		res.MedianRatio = res.SuccessBytes.Median / res.FailedBytes.Median
	}
	if res.KSBytes, err = stats.KSTwoSampleSorted(okBytes, failBytes); err != nil {
		return nil, err
	}
	bytesSorted := make([]float64, m)
	for i, k := range bytesOrder {
		bytesSorted[i] = float64(bytesKey[k])
	}
	if res.SpearmanBytesOutcome, err = stats.SpearmanRanks(stats.RanksSorted(bytesOrder, bytesSorted), stats.Ranks(success)); err != nil {
		return nil, err
	}
	return res, nil
}

// InterruptCorrelation quantifies how system interruptions track user
// activity and core-hours (E15): bigger consumers absorb more of the
// machine, so they are interrupted more.
type InterruptCorrelation struct {
	// PearsonCHInterrupts correlates per-user core-hours with per-user
	// system-interrupt counts.
	PearsonCHInterrupts float64
	// PearsonJobsInterrupts correlates per-user job counts with interrupts.
	PearsonJobsInterrupts float64
	// TopDecileShare is the share of interrupts hitting the top 10% of
	// users by core-hours.
	TopDecileShare float64
	Users          int
	Interrupted    int // users with ≥1 system interrupt
}

// interruptCorrelationFrom computes the correlation profile from aligned
// per-user series in deterministic (alphabetical) user order.
func interruptCorrelationFrom(ch, jobs, ints []float64) (*InterruptCorrelation, error) {
	res := &InterruptCorrelation{Users: len(ch)}
	for _, n := range ints {
		if n > 0 {
			res.Interrupted++
		}
	}
	var err error
	if res.PearsonCHInterrupts, err = stats.Pearson(ch, ints); err != nil {
		return nil, err
	}
	if res.PearsonJobsInterrupts, err = stats.Pearson(jobs, ints); err != nil {
		return nil, err
	}
	// Top decile by core-hours.
	idx := make([]int, len(ch))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ch[idx[a]] > ch[idx[b]] })
	k := len(idx) / 10
	if k < 1 {
		k = 1
	}
	var top, total float64
	for i, id := range idx {
		total += ints[id]
		if i < k {
			top += ints[id]
		}
	}
	if total > 0 {
		res.TopDecileShare = top / total
	}
	return res, nil
}
