package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/joblog"
	"repro/internal/stats"
)

// The pre-order-layer walks, kept verbatim as the oracles of the JobOrders
// analyses (orders_test.go): each copies and sorts its own series with
// sort.Float64s, groups by map and ranks through stats.Spearman. The only
// edit besides the receivers and names is FailureByStructure's log-bucket
// lower edge, which takes the same smallest-positive fix as the production
// form so the two agree on zero-valued jobs too.

// summarizeWalk, quantilesWalk and ksTwoSampleWalk are the copy-and-sort
// forms of stats.Summarize, stats.Quantiles and stats.KSTwoSample the walks
// called.
func summarizeWalk(data []float64) (stats.Summary, error) {
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	return stats.SummarizeSorted(sorted)
}

func quantilesWalk(data []float64, ps []float64) ([]float64, error) {
	if len(data) == 0 {
		return nil, stats.ErrEmpty
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = stats.QuantileSorted(sorted, p)
	}
	return out, nil
}

func ksTwoSampleWalk(a, b []float64) (float64, error) {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	return stats.KSTwoSampleSorted(sa, sb)
}

func (s StructureDim) walkValue(j *joblog.Job) float64 {
	switch s {
	case DimNodes:
		return float64(j.Nodes)
	case DimTasks:
		return float64(j.NumTasks)
	case DimCoreHours:
		return j.CoreHours()
	default:
		return j.Runtime().Hours()
	}
}

// failureByStructureWalk buckets jobs by a structure attribute and reports the
// per-bucket failure rate. For DimNodes the buckets are the schedulable
// block sizes; other dimensions use logarithmic buckets.
func failureByStructureWalk(d *Dataset, dim StructureDim) (*StructureResult, error) {
	recs := d.JobRecords()
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: no jobs")
	}
	res := &StructureResult{Dim: dim}

	var edges []float64
	if dim == DimNodes {
		for _, n := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 49152} {
			edges = append(edges, float64(n))
		}
		edges = append(edges, float64(49152+1))
	} else {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range recs {
			v := dim.walkValue(&recs[i])
			if v > 0 && v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if math.IsInf(lo, 1) {
			lo = math.SmallestNonzeroFloat64
		}
		if hi <= lo {
			hi = lo * 10
		}
		const buckets = 8
		ratio := math.Pow(hi/lo, 1.0/buckets)
		edges = append(edges, lo)
		for i := 1; i <= buckets; i++ {
			edges = append(edges, lo*math.Pow(ratio, float64(i)))
		}
		edges[len(edges)-1] = math.Nextafter(hi, math.Inf(1))
	}

	res.Buckets = make([]Bucket, len(edges)-1)
	for i := range res.Buckets {
		res.Buckets[i].Lo = edges[i]
		res.Buckets[i].Hi = edges[i+1]
	}
	values := make([]float64, len(recs))
	failed := make([]float64, len(recs))
	for i := range recs {
		j := &recs[i]
		v := dim.walkValue(j)
		values[i] = v
		if j.Outcome() == joblog.OutcomeFailure {
			failed[i] = 1
		}
		idx := sort.SearchFloat64s(edges, v)
		// SearchFloat64s returns the first edge ≥ v; bucket index is idx-1
		// except when v equals an edge exactly.
		if idx < len(edges) && edges[idx] == v {
			idx++
		}
		idx--
		if idx < 0 {
			idx = 0
		}
		if idx >= len(res.Buckets) {
			idx = len(res.Buckets) - 1
		}
		res.Buckets[idx].Jobs++
		if failed[i] == 1 {
			res.Buckets[idx].Failed++
		}
	}
	for i := range res.Buckets {
		if res.Buckets[i].Jobs > 0 {
			res.Buckets[i].FailRate = float64(res.Buckets[i].Failed) / float64(res.Buckets[i].Jobs)
		}
	}
	trend, err := stats.Spearman(values, failed)
	if err != nil {
		return nil, fmt.Errorf("core: structure trend: %w", err)
	}
	res.SpearmanTrend = trend
	return res, nil
}

// structureSummaryWalk computes E3's distributions.
func structureSummaryWalk(d *Dataset) (*JobStructureSummary, error) {
	jobs := d.JobRecords()
	n := len(jobs)
	nodes := make([]float64, n)
	tasks := make([]float64, n)
	runtime := make([]float64, n)
	ch := make([]float64, n)
	hist := map[int]int{}
	for i := range jobs {
		j := &jobs[i]
		nodes[i] = float64(j.Nodes)
		tasks[i] = float64(j.NumTasks)
		runtime[i] = j.Runtime().Hours()
		ch[i] = j.CoreHours()
		hist[j.Nodes]++
	}
	out := &JobStructureSummary{SizeHistogram: hist}
	var err error
	if out.Nodes, err = summarizeWalk(nodes); err != nil {
		return nil, err
	}
	if out.Tasks, err = summarizeWalk(tasks); err != nil {
		return nil, err
	}
	if out.RuntimeH, err = summarizeWalk(runtime); err != nil {
		return nil, err
	}
	if out.CoreHours, err = summarizeWalk(ch); err != nil {
		return nil, err
	}
	return out, nil
}

// schedulingWalk computes the queue-wait and walltime-accuracy profile.
func schedulingWalk(d *Dataset) (*SchedulingResult, error) {
	recs := d.JobRecords()
	if len(recs) == 0 {
		return nil, fmt.Errorf("core: no jobs")
	}
	waits := map[int][]float64{}
	// The paired-sample slices reach one entry per job; sizing them up front
	// avoids repeated growth copies on the hot suite path.
	sizes := make([]float64, 0, len(recs))
	waitVals := make([]float64, 0, len(recs))
	var okReq, okUsed []float64
	ratiosByOutcome := map[string][]float64{}
	for i := range recs {
		j := &recs[i]
		w := j.Start.Sub(j.Submit)
		if w < 0 {
			w = 0
		}
		waits[j.Nodes] = append(waits[j.Nodes], w.Seconds())
		sizes = append(sizes, float64(j.Nodes))
		waitVals = append(waitVals, w.Seconds())
		if j.WalltimeReq > 0 {
			ratio := float64(j.Runtime()) / float64(j.WalltimeReq)
			ratiosByOutcome[j.Outcome().String()] = append(ratiosByOutcome[j.Outcome().String()], ratio)
			if j.Outcome() == joblog.OutcomeSuccess {
				okReq = append(okReq, j.WalltimeReq.Seconds())
				okUsed = append(okUsed, j.Runtime().Seconds())
			}
		}
	}
	res := &SchedulingResult{}
	nodes := make([]int, 0, len(waits))
	for n := range waits {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		qs, err := quantilesWalk(waits[n], []float64{0.5, 0.95})
		if err != nil {
			return nil, err
		}
		res.WaitBySize = append(res.WaitBySize, WaitBucket{
			Nodes:      n,
			Jobs:       len(waits[n]),
			MedianWait: time.Duration(qs[0] * float64(time.Second)),
			P95Wait:    time.Duration(qs[1] * float64(time.Second)),
		})
	}
	trend, err := stats.Spearman(sizes, waitVals)
	if err != nil {
		return nil, fmt.Errorf("core: size-wait trend: %w", err)
	}
	res.SpearmanSizeWait = trend

	for _, outcome := range []string{"success", "failure"} {
		ratios := ratiosByOutcome[outcome]
		if len(ratios) == 0 {
			continue
		}
		qs, err := quantilesWalk(ratios, []float64{0.5, 0.95})
		if err != nil {
			return nil, err
		}
		under := 0
		for _, r := range ratios {
			if r < 0.1 {
				under++
			}
		}
		res.Accuracy = append(res.Accuracy, WalltimeAccuracy{
			Outcome:     outcome,
			Jobs:        len(ratios),
			MedianRatio: qs[0],
			P95Ratio:    qs[1],
			UnderTenPct: float64(under) / float64(len(ratios)),
		})
	}
	if len(okReq) >= 2 {
		r, err := stats.Pearson(okReq, okUsed)
		if err != nil {
			return nil, fmt.Errorf("core: req-used correlation: %w", err)
		}
		res.PearsonReqUsed = r
	}
	return res, nil
}

// resubmissionWalk analyzes consecutive same-user jobs (ordered by submission)
// for outcome repetition and resubmission latency.
func resubmissionWalk(d *Dataset) (*ResubmitResult, error) {
	recs := d.JobRecords()
	byUser := map[string][]*joblog.Job{}
	for i := range recs {
		j := &recs[i]
		byUser[j.User] = append(byUser[j.User], j)
	}
	users := make([]string, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Strings(users)
	res := &ResubmitResult{}
	var failAfterFail, failAfterSuccess int
	var gapsFail, gapsSuccess []float64
	fastResubs, totalFailGaps := 0, 0
	totalJobs, totalFailed := 0, 0
	for _, u := range users {
		jobs := byUser[u]
		sort.Slice(jobs, func(a, b int) bool {
			if !jobs[a].Submit.Equal(jobs[b].Submit) {
				return jobs[a].Submit.Before(jobs[b].Submit)
			}
			return jobs[a].ID < jobs[b].ID
		})
		for i, j := range jobs {
			totalJobs++
			if j.Outcome() == joblog.OutcomeFailure {
				totalFailed++
			}
			if i == 0 {
				continue
			}
			prev := jobs[i-1]
			nextFails := j.Outcome() == joblog.OutcomeFailure
			// Inter-submission time: robust to pipelined jobs whose next
			// submission precedes the previous job's end.
			gap := j.Submit.Sub(prev.Submit)
			if prev.Outcome() == joblog.OutcomeFailure {
				res.PairsAfterFail++
				if nextFails {
					failAfterFail++
				}
				gapsFail = append(gapsFail, gap.Hours())
				totalFailGaps++
				if gap < time.Hour {
					fastResubs++
				}
			} else {
				res.PairsAfterSuccess++
				if nextFails {
					failAfterSuccess++
				}
				gapsSuccess = append(gapsSuccess, gap.Hours())
			}
		}
	}
	if res.PairsAfterFail == 0 || res.PairsAfterSuccess == 0 {
		return nil, fmt.Errorf("core: not enough consecutive job pairs (fail=%d success=%d)",
			res.PairsAfterFail, res.PairsAfterSuccess)
	}
	res.PFailAfterFail = float64(failAfterFail) / float64(res.PairsAfterFail)
	res.PFailAfterSuccess = float64(failAfterSuccess) / float64(res.PairsAfterSuccess)
	overall := float64(totalFailed) / float64(totalJobs)
	if overall > 0 {
		res.Lift = res.PFailAfterFail / overall
	}
	var err error
	if res.MedianGapAfterFailH, err = stats.Quantile(gapsFail, 0.5); err != nil {
		return nil, err
	}
	if res.MedianGapAfterSuccessH, err = stats.Quantile(gapsSuccess, 0.5); err != nil {
		return nil, err
	}
	if totalFailGaps > 0 {
		res.FastResubmitShare = float64(fastResubs) / float64(totalFailGaps)
	}
	return res, nil
}

// ioBehaviorWalk computes E13's I/O-vs-outcome comparison.
func ioBehaviorWalk(d *Dataset) (*IOCorrelation, error) {
	recs := d.JobRecords()
	var okBytes, failBytes, okSecs, failSecs []float64
	var bytesAll, successAll []float64
	for i := range recs {
		j := &recs[i]
		if d.ioOf[i] < 0 {
			continue
		}
		rec := d.IO[d.ioOf[i]]
		b := float64(rec.TotalBytes())
		s := rec.IOTime.Seconds()
		bytesAll = append(bytesAll, b)
		if j.Outcome() == joblog.OutcomeSuccess {
			okBytes = append(okBytes, b)
			okSecs = append(okSecs, s)
			successAll = append(successAll, 1)
		} else {
			failBytes = append(failBytes, b)
			failSecs = append(failSecs, s)
			successAll = append(successAll, 0)
		}
	}
	if len(okBytes) == 0 || len(failBytes) == 0 {
		return nil, fmt.Errorf("core: need I/O records for both outcomes (ok=%d fail=%d)", len(okBytes), len(failBytes))
	}
	res := &IOCorrelation{SampledJobs: len(bytesAll)}
	var err error
	if res.SuccessBytes, err = summarizeWalk(okBytes); err != nil {
		return nil, err
	}
	if res.FailedBytes, err = summarizeWalk(failBytes); err != nil {
		return nil, err
	}
	if res.SuccessIOSecs, err = summarizeWalk(okSecs); err != nil {
		return nil, err
	}
	if res.FailedIOSecs, err = summarizeWalk(failSecs); err != nil {
		return nil, err
	}
	if res.FailedBytes.Median > 0 {
		res.MedianRatio = res.SuccessBytes.Median / res.FailedBytes.Median
	}
	if res.KSBytes, err = ksTwoSampleWalk(okBytes, failBytes); err != nil {
		return nil, err
	}
	if res.SpearmanBytesOutcome, err = stats.Spearman(bytesAll, successAll); err != nil {
		return nil, err
	}
	return res, nil
}

// executionLengthCDFsWalk returns the execution-length samples (seconds) of
// succeeded and failed jobs, each sorted ascending — the data behind the
// paper's CDF comparison figure (E5). The sorted order lets callers wrap
// the slices in dist.NewSampleSorted / stats.NewECDFSorted without another
// copy or sort.
func executionLengthCDFsWalk(d *Dataset) (succeeded, failed []float64) {
	jobs := d.JobRecords()
	for i := range jobs {
		j := &jobs[i]
		sec := j.Runtime().Seconds()
		if sec <= 0 {
			continue
		}
		if j.Outcome() == joblog.OutcomeSuccess {
			succeeded = append(succeeded, sec)
		} else {
			failed = append(failed, sec)
		}
	}
	sort.Float64s(succeeded)
	sort.Float64s(failed)
	return succeeded, failed
}
