package core

import (
	"fmt"
	"time"

	"repro/internal/joblog"
	"repro/internal/stats"
)

// WaitBucket is the queue-wait profile of one job-size class.
type WaitBucket struct {
	Nodes      int // block size
	Jobs       int
	MedianWait time.Duration
	P95Wait    time.Duration
}

// WalltimeAccuracy summarizes how well requested walltimes predict actual
// runtimes for one outcome class. Ratio = runtime / requested walltime.
type WalltimeAccuracy struct {
	Outcome     string
	Jobs        int
	MedianRatio float64
	P95Ratio    float64
	// UnderTenPct is the fraction of jobs using less than 10% of their
	// request — grossly over-requested work.
	UnderTenPct float64
}

// SchedulingResult is the queue-behaviour analysis: waiting time by job
// size and walltime-request accuracy by outcome.
type SchedulingResult struct {
	WaitBySize []WaitBucket
	// SpearmanSizeWait is the rank correlation between a job's size and its
	// queue wait — capability jobs wait longer for machine drains.
	SpearmanSizeWait float64
	Accuracy         []WalltimeAccuracy
	// PearsonReqUsed correlates requested walltime with actual runtime
	// over succeeded jobs.
	PearsonReqUsed float64
}

// Scheduling computes the queue-wait and walltime-accuracy profile. The
// per-size wait quantiles come from one stable pass of the wait order into
// per-size buckets, so each bucket comes out ascending; the size-wait trend
// correlates the shared nodes and wait ranks.
func (o *JobOrders) Scheduling() (*SchedulingResult, error) {
	v := o.d.JobView()
	if v.N == 0 {
		return nil, fmt.Errorf("core: no jobs")
	}
	nodes, wait := o.nodesCol(), o.waitCol()
	// One bucket per block size, in ascending size order: the runs of the
	// nodes order. start[b] is where bucket b begins in byBucket.
	bucketOf := make([]int32, v.N)
	var sizes, start []int
	for k, r := range nodes.order {
		if k == 0 || nodes.sorted[k] != nodes.sorted[k-1] {
			sizes = append(sizes, int(nodes.sorted[k]))
			start = append(start, k)
		}
		bucketOf[r] = int32(len(sizes) - 1)
	}
	start = append(start, v.N)
	next := append([]int(nil), start...)
	byBucket := make([]float64, v.N)
	for k, r := range wait.order {
		b := bucketOf[r]
		byBucket[next[b]] = wait.sorted[k]
		next[b]++
	}
	res := &SchedulingResult{}
	for b, n := range sizes {
		ws := byBucket[start[b]:start[b+1]]
		res.WaitBySize = append(res.WaitBySize, WaitBucket{
			Nodes:      n,
			Jobs:       len(ws),
			MedianWait: time.Duration(stats.QuantileSorted(ws, 0.5) * float64(time.Second)),
			P95Wait:    time.Duration(stats.QuantileSorted(ws, 0.95) * float64(time.Second)),
		})
	}
	trend, err := stats.SpearmanRanks(nodes.rank(), wait.rank())
	if err != nil {
		return nil, fmt.Errorf("core: size-wait trend: %w", err)
	}
	res.SpearmanSizeWait = trend

	// Runtime / requested walltime per outcome: successes fill ratios from
	// the front, failures from the back (each is sorted below). The
	// requested vs used pairs of succeeded jobs stay in job order. Both
	// durations are built from their seconds as joblog.Job's are, so the
	// ratios and pairs have the records' bits.
	n := v.N
	all := make([]float64, n)
	okReq, okUsed := make([]float64, 0, n), make([]float64, 0, n)
	front, back := 0, n
	for i := 0; i < n; i++ {
		req := time.Duration(v.WalltimeSec[i]) * time.Second
		if req <= 0 {
			continue
		}
		runtime := time.Duration(v.DurSec[i]) * time.Second
		ratio := float64(runtime) / float64(req)
		if v.Exit[i] == joblog.ExitSuccess {
			all[front] = ratio
			front++
			okReq = append(okReq, req.Seconds())
			okUsed = append(okUsed, runtime.Seconds())
		} else {
			back--
			all[back] = ratio
		}
	}
	ratios := [2][]float64{all[:front], all[back:]}
	for k, outcome := range []string{"success", "failure"} {
		rs := ratios[k]
		if len(rs) == 0 {
			continue
		}
		under := 0
		for _, r := range rs {
			if r < 0.1 {
				under++
			}
		}
		stats.SortFloat64s(rs)
		res.Accuracy = append(res.Accuracy, WalltimeAccuracy{
			Outcome:     outcome,
			Jobs:        len(rs),
			MedianRatio: stats.QuantileSorted(rs, 0.5),
			P95Ratio:    stats.QuantileSorted(rs, 0.95),
			UnderTenPct: float64(under) / float64(len(rs)),
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

// LifePhase is the reliability profile of one slice of the system's life.
type LifePhase struct {
	Label         string
	StartDay      float64
	EndDay        float64
	Jobs          int
	Failed        int
	FailRate      float64
	Interruptions int
	MTTIDays      float64
}

// LifePhasesFromMTTI computes the life-phase profile from an
// already-computed MTTI analysis, letting callers reuse a memoized result
// instead of re-filtering the FATAL stream.
func (d *Dataset) LifePhasesFromMTTI(n int, mtti *MTTIResult) ([]LifePhase, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: need ≥2 phases, got %d", n)
	}
	start, end := d.Span()
	span := end.Sub(start)
	phaseOf := func(offset time.Duration) int {
		idx := int(float64(n) * float64(offset) / float64(span))
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		return idx
	}
	phases := make([]LifePhase, n)
	for i := range phases {
		phases[i].Label = fmt.Sprintf("phase %d/%d", i+1, n)
		phases[i].StartDay = float64(i) * span.Hours() / 24 / float64(n)
		phases[i].EndDay = float64(i+1) * span.Hours() / 24 / float64(n)
	}
	// Job starts, like the span's start, are whole seconds, so the offset
	// is the one time.Time.Sub returns.
	v := d.JobView()
	for i, sec := range v.StartUnix {
		p := &phases[phaseOf(time.Duration(sec-start.Unix())*time.Second)]
		p.Jobs++
		if v.Exit[i] != joblog.ExitSuccess {
			p.Failed++
		}
	}
	// Incident times are Unix seconds; the dataset's times, start
	// included, are whole seconds, so this offset is exact.
	for _, sec := range mtti.Incidents.First {
		phases[phaseOf(time.Duration(sec-start.Unix())*time.Second)].Interruptions++
	}
	for i := range phases {
		p := &phases[i]
		if p.Jobs > 0 {
			p.FailRate = float64(p.Failed) / float64(p.Jobs)
		}
		if p.Interruptions > 0 {
			p.MTTIDays = (p.EndDay - p.StartDay) / float64(p.Interruptions)
		}
	}
	return phases, nil
}
