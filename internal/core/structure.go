package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// StructureDim selects a job-structure attribute for the failure-rate
// bucketing of experiment E8.
type StructureDim int

// Structure dimensions.
const (
	DimNodes     StructureDim = iota + 1 // job scale (block size)
	DimTasks                             // number of physical tasks
	DimCoreHours                         // consumed core-hours
	DimRuntime                           // execution length (hours)
)

// String implements fmt.Stringer.
func (s StructureDim) String() string {
	switch s {
	case DimNodes:
		return "nodes"
	case DimTasks:
		return "tasks"
	case DimCoreHours:
		return "core-hours"
	case DimRuntime:
		return "runtime-h"
	default:
		return fmt.Sprintf("StructureDim(%d)", int(s))
	}
}

// col returns the JobOrders column behind dim; every dimension other than
// nodes, tasks and core-hours is runtime.
func (o *JobOrders) col(dim StructureDim) *column {
	switch dim {
	case DimNodes:
		return o.nodesCol()
	case DimTasks:
		return o.tasksCol()
	case DimCoreHours:
		return o.coreHoursCol()
	default:
		return o.runtimeCol()
	}
}

// Bucket is one row of a failure-rate-by-structure table.
type Bucket struct {
	Lo, Hi   float64 // value range [Lo, Hi)
	Jobs     int
	Failed   int
	FailRate float64
}

// StructureResult is the bucketed failure-rate profile for one dimension.
type StructureResult struct {
	Dim     StructureDim
	Buckets []Bucket
	// SpearmanTrend is the rank correlation between the attribute value and
	// job failure (0/1) across all jobs — the monotone-trend statistic.
	SpearmanTrend float64
}

// FailureByStructure buckets jobs by a structure attribute and reports the
// per-bucket failure rate. For DimNodes the buckets are the schedulable
// block sizes; other dimensions use logarithmic buckets from the smallest
// positive value to the largest, and values ≤ 0 count in the first bucket.
// The trend correlates the attribute's shared ranks with the shared ranks
// of the failure indicator.
func (o *JobOrders) FailureByStructure(dim StructureDim) (*StructureResult, error) {
	d := o.d
	if d.JobView().N == 0 {
		return nil, fmt.Errorf("core: no jobs")
	}
	res := &StructureResult{Dim: dim}
	c := o.col(dim)

	var edges []float64
	if dim == DimNodes {
		for _, n := range []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 49152} {
			edges = append(edges, float64(n))
		}
		edges = append(edges, float64(49152+1))
	} else {
		lo := math.SmallestNonzeroFloat64
		if k := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > 0 }); k < len(c.sorted) {
			lo = c.sorted[k]
		}
		hi := c.sorted[len(c.sorted)-1]
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
	// One walk of the ascending series. lt, the number of edges below the
	// value, only grows, and is what a binary search of edges would return.
	fam := d.JobView().Family
	lt := 0
	for k, v := range c.sorted {
		for lt < len(edges) && edges[lt] < v {
			lt++
		}
		// The bucket index is lt-1, except when v equals an edge exactly.
		idx := lt
		if idx < len(edges) && edges[idx] == v {
			idx++
		}
		idx = min(max(idx-1, 0), len(res.Buckets)-1)
		res.Buckets[idx].Jobs++
		if fam[c.order[k]] != 0 {
			res.Buckets[idx].Failed++
		}
	}
	for i := range res.Buckets {
		if res.Buckets[i].Jobs > 0 {
			res.Buckets[i].FailRate = float64(res.Buckets[i].Failed) / float64(res.Buckets[i].Jobs)
		}
	}
	trend, err := stats.SpearmanRanks(c.rank(), o.failRank())
	if err != nil {
		return nil, fmt.Errorf("core: structure trend: %w", err)
	}
	res.SpearmanTrend = trend
	return res, nil
}

// JobStructureSummary describes the corpus' job-structure distributions
// (experiment E3): scale, tasks, runtime, core-hours.
type JobStructureSummary struct {
	Nodes     stats.Summary
	Tasks     stats.Summary
	RuntimeH  stats.Summary
	CoreHours stats.Summary
	// SizeHistogram counts jobs per schedulable block size.
	SizeHistogram map[int]int
}

// StructureSummary computes E3's distributions from the shared sorted
// series; the size histogram counts the runs of the nodes order.
func (o *JobOrders) StructureSummary() (*JobStructureSummary, error) {
	nodes := o.nodesCol()
	hist := map[int]int{}
	for i := 0; i < len(nodes.sorted); {
		j := i + 1
		for j < len(nodes.sorted) && nodes.sorted[j] == nodes.sorted[i] {
			j++
		}
		hist[int(nodes.sorted[i])] = j - i
		i = j
	}
	out := &JobStructureSummary{SizeHistogram: hist}
	var err error
	if out.Nodes, err = stats.SummarizeSorted(nodes.sorted); err != nil {
		return nil, err
	}
	if out.Tasks, err = stats.SummarizeSorted(o.tasksCol().sorted); err != nil {
		return nil, err
	}
	if out.RuntimeH, err = stats.SummarizeSorted(o.runtimeCol().sorted); err != nil {
		return nil, err
	}
	if out.CoreHours, err = stats.SummarizeSorted(o.coreHoursCol().sorted); err != nil {
		return nil, err
	}
	return out, nil
}
