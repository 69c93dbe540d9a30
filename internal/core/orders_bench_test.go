package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/par"
)

// The paired BenchmarkOrderStats_PerAnalysis/_Shared benchmarks run the six
// analyses E3, E5, E8 (nodes, tasks, core-hours), E13, E17 and E20 over a
// paper-sized job log: 344,701 whole-second jobs from 900 users over 2001
// days, 42% with an I/O record. PerAnalysis runs the walks each analysis
// used to make (orders_oracle_test.go); Shared runs them on one cold
// JobOrders, as one experiments.Env does per suite pass.
// BenchmarkOrderStats_Shared reports "speedup": the median of three
// per-analysis runs divided by its per-iteration time.

var orderBenchData par.Memo[*Dataset]

func orderBenchDataset(b *testing.B) *Dataset {
	d, _ := orderBenchData.Get(func() (*Dataset, error) {
		const n, users = 344701, 900
		rng := rand.New(rand.NewSource(18))
		start := time.Date(2013, 4, 9, 0, 0, 0, 0, time.UTC)
		span := 2001 * 24 * time.Hour
		sizes := []int{512, 512, 512, 1024, 1024, 2048, 4096, 8192, 16384, 32768, 49152}
		exits := []int{1, 2, 5, 12, 134, 137, 139, 143}
		jobs := make([]joblog.Job, n)
		var io []iolog.Record
		for i := range jobs {
			// Submit times ascend with the id, one burst of users at a time.
			submit := start.Add(time.Duration(float64(span) * float64(i) / n)).Truncate(time.Second)
			begin := submit.Add(time.Duration(rng.ExpFloat64()*3600) * time.Second)
			end := begin.Add(time.Duration(1+rng.ExpFloat64()*5000) * time.Second)
			exit := 0
			if rng.Float64() < 0.29 {
				exit = exits[rng.Intn(len(exits))]
			}
			u := int(math.Min(users-1, rng.ExpFloat64()*users/5))
			jobs[i] = joblog.Job{
				ID: int64(i + 1), User: fmt.Sprintf("user%03d", u), Project: fmt.Sprintf("proj%03d", u/3), Queue: "prod",
				Submit: submit, Start: begin, End: end, WalltimeReq: time.Duration(1+rng.Intn(24)) * time.Hour,
				Nodes: sizes[rng.Intn(len(sizes))], RanksPerNode: 16, NumTasks: 1 + int(rng.ExpFloat64()*2), ExitStatus: exit,
			}
			if rng.Float64() < 0.42 {
				io = append(io, iolog.Record{
					JobID: jobs[i].ID, BytesRead: int64(rng.ExpFloat64() * 1e10), BytesWritten: int64(rng.ExpFloat64() * 1e9),
					IOTime: time.Duration(rng.ExpFloat64()*600) * time.Second,
				})
			}
		}
		d, err := NewDataset(jobs, nil, nil, io)
		if err != nil {
			panic(err)
		}
		return d, nil
	})
	return d
}

// orderBenchDims are the structure dimensions E8 renders.
var orderBenchDims = []StructureDim{DimNodes, DimTasks, DimCoreHours}

func runOrderWalks(b *testing.B, d *Dataset) {
	if _, err := structureSummaryWalk(d); err != nil {
		b.Fatal(err)
	}
	executionLengthCDFsWalk(d)
	for _, dim := range orderBenchDims {
		if _, err := failureByStructureWalk(d, dim); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := ioBehaviorWalk(d); err != nil {
		b.Fatal(err)
	}
	if _, err := schedulingWalk(d); err != nil {
		b.Fatal(err)
	}
	if _, err := resubmissionWalk(d); err != nil {
		b.Fatal(err)
	}
}

func runOrderShared(b *testing.B, d *Dataset) {
	o := NewJobOrders(d)
	if _, err := o.StructureSummary(); err != nil {
		b.Fatal(err)
	}
	o.ExecutionLengthCDFs()
	for _, dim := range orderBenchDims {
		if _, err := o.FailureByStructure(dim); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := d.IOBehavior(); err != nil {
		b.Fatal(err)
	}
	if _, err := o.Scheduling(); err != nil {
		b.Fatal(err)
	}
	if _, err := o.Resubmission(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkOrderStats_PerAnalysis(b *testing.B) {
	d := orderBenchDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOrderWalks(b, d)
	}
}

func BenchmarkOrderStats_Shared(b *testing.B) {
	d := orderBenchDataset(b)
	// Median of three per-analysis runs sampled outside the timer: the
	// baseline for the speedup metric, robust to a single scheduling stall.
	var samples []time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		runOrderWalks(b, d)
		samples = append(samples, time.Since(t0))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	perAnalysis := samples[1]

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOrderShared(b, d)
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(perAnalysis.Nanoseconds())/perIter, "speedup")
	}
}
