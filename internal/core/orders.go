package core

import (
	"time"

	"repro/internal/joblog"
	"repro/internal/par"
	"repro/internal/stats"
)

// JobOrders is the order-statistics layer over a dataset's jobs: each job
// attribute the structure, runtime, queue and resubmission analyses rank or
// take quantiles of is sorted once and shared. NewJobOrders is O(1); every
// entry is built on first use under its own par.Memo, so a JobOrders is
// safe for concurrent use and pays only for the entries its callers read.
//
// Orders are taken on integer keys wherever the analysed float grows with
// one (nodes, tasks, runtime, wait, submit time), so the radix passes skip
// the digits every key shares; core-hours sorts by its float key.
type JobOrders struct {
	d *Dataset

	nodes, tasks, runtime, wait, coreHours par.Memo[*column]

	failRanks  par.Memo[[]float64]
	failRt     par.Memo[*[joblog.NumFamilies][]float64]
	userSubmit par.Memo[[]int32]
}

// column is one job attribute sorted once.
type column struct {
	// order lists the rows by ascending value, ties by row; sorted is the
	// attribute in that order.
	order  []int32
	sorted []float64

	ranks par.Memo[[]float64]
}

// rank returns the attribute's fractional ranks per job, aligned with
// the job rows, computing them on first use.
func (c *column) rank() []float64 {
	r, _ := c.ranks.Get(func() ([]float64, error) { return stats.RanksSorted(c.order, c.sorted), nil })
	return r
}

// memoColumn returns the column memoized in m, building it with fill on
// first use.
func memoColumn(m *par.Memo[*column], fill func(c *column)) *column {
	c, _ := m.Get(func() (*column, error) {
		c := &column{}
		fill(c)
		return c, nil
	})
	return c
}

// NewJobOrders returns the (still empty) order layer over d's jobs.
func NewJobOrders(d *Dataset) *JobOrders { return &JobOrders{d: d} }

// fillInts fills c from an integer key per job and val, a non-decreasing
// map from key to value: the stable key order is then an ascending value
// order with equal values adjacent, which both the sorted series and the
// ranks read.
func fillInts[K int32 | int64](c *column, key []K, val func(K) float64) {
	c.order = stats.KeyOrder(key)
	c.sorted = make([]float64, len(key))
	for i, r := range c.order {
		c.sorted[i] = val(key[r])
	}
}

// nodesCol is the allocated block size per job.
func (o *JobOrders) nodesCol() *column {
	return memoColumn(&o.nodes, func(c *column) { fillInts(c, o.d.JobView().Nodes, func(n int32) float64 { return float64(n) }) })
}

// tasksCol is the physical task count per job.
func (o *JobOrders) tasksCol() *column {
	return memoColumn(&o.tasks, func(c *column) {
		fillInts(c, o.d.JobView().NumTasks, func(n int32) float64 { return float64(n) })
	})
}

// runtimeCol is the execution length per job in hours.
func (o *JobOrders) runtimeCol() *column {
	return memoColumn(&o.runtime, func(c *column) {
		fillInts(c, o.d.JobView().DurSec, func(d int64) float64 { return (time.Duration(d) * time.Second).Hours() })
	})
}

// waitCol is the queue wait per job in seconds, clamped at zero.
func (o *JobOrders) waitCol() *column {
	return memoColumn(&o.wait, func(c *column) {
		v := o.d.JobView()
		waits := make([]int64, v.N)
		for i := range waits {
			waits[i] = max(v.StartUnix[i]-v.SubmitUnix[i], 0)
		}
		fillInts(c, waits, func(w int64) float64 { return float64(w) })
	})
}

// coreHoursCol is joblog.Job.CoreHours per job. Its float expression is
// not monotone in any integer column, so it sorts by the float key.
func (o *JobOrders) coreHoursCol() *column {
	return memoColumn(&o.coreHours, func(c *column) {
		v := o.d.JobView()
		vals := make([]float64, v.N)
		for i := range vals {
			vals[i] = v.CoreHours(i)
		}
		c.order, c.sorted = stats.SortOrder(vals)
	})
}

// failRank is the ranks of the per-job failure indicator (1 failed, 0
// succeeded), which every structure trend correlates against. The
// indicator has two tie groups, so the ranks come from counting: the z
// succeeded jobs share the average of ranks 1..z and the failed jobs that
// of z+1..n, each formed by stats.RanksSorted's expression, so the bits
// are those of stats.Ranks.
func (o *JobOrders) failRank() []float64 {
	r, _ := o.failRanks.Get(func() ([]float64, error) { return indicatorRanks(o.d.JobView().Family), nil })
	return r
}

// indicatorRanks returns the fractional ranks of the indicator fam[i] != 0.
func indicatorRanks(fam []uint8) []float64 {
	n, z := len(fam), 0
	for _, f := range fam {
		if f == 0 {
			z++
		}
	}
	r0 := (float64(1) + float64(z)) / 2   // ranks 1..z
	r1 := (float64(z+1) + float64(n)) / 2 // ranks z+1..n
	r := make([]float64, n)
	for i, f := range fam {
		if f == 0 {
			r[i] = r0
		} else {
			r[i] = r1
		}
	}
	return r
}

// byUserSubmit lists the rows ordered by (user, submit time, job id): the
// id order, stably re-sorted by the submit second, then the user.
func (o *JobOrders) byUserSubmit() []int32 {
	perm, _ := o.userSubmit.Get(func() ([]int32, error) {
		v := o.d.JobView()
		perm := append([]int32(nil), o.d.byID...)
		stats.SortByKey(perm, v.SubmitUnix)
		stats.SortByKey(perm, v.UserID)
		return perm, nil
	})
	return perm
}
