package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/sim"
	"repro/internal/tasklog"
)

// corpus/dataset shared across the package tests (90 days: enough failures
// for every analysis, still fast).
var (
	testCorpus  *sim.Corpus
	testDataset *Dataset
)

func dataset(t *testing.T) (*Dataset, *sim.Corpus) {
	t.Helper()
	if testDataset == nil {
		cfg := sim.SmallConfig()
		cfg.Days = 90
		cfg.NumUsers = 200
		cfg.NumProjects = 60
		c, err := sim.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
		if err != nil {
			t.Fatal(err)
		}
		testCorpus = c
		testDataset = d
	}
	return testDataset, testCorpus
}

func TestNewDatasetErrors(t *testing.T) {
	if _, err := NewDataset(nil, nil, nil, nil); err == nil {
		t.Error("empty dataset accepted")
	}
	jobs := []joblog.Job{{ID: 1}, {ID: 1}}
	if _, err := NewDataset(jobs, nil, nil, nil); err == nil {
		t.Error("duplicate job ids accepted")
	}
}

// TestNewDatasetRejectsSubSecond pins the corpus resolution: a job, task
// or event time finer than a whole second is an error naming the record.
func TestNewDatasetRejectsSubSecond(t *testing.T) {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		name, want string
		edit       func(*joblog.Job, *tasklog.Task, *raslog.Event)
	}{
		{"job", "job 7", func(j *joblog.Job, _ *tasklog.Task, _ *raslog.Event) { j.End = j.End.Add(time.Millisecond) }},
		{"task", "task 3", func(_ *joblog.Job, k *tasklog.Task, _ *raslog.Event) { k.Start = k.Start.Add(time.Nanosecond) }},
		{"event", "event 5", func(_ *joblog.Job, _ *tasklog.Task, e *raslog.Event) { e.Time = e.Time.Add(500 * time.Millisecond) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			jobs := []joblog.Job{{ID: 7, User: "u", Project: "p", Submit: base, Start: base, End: base.Add(time.Hour), Nodes: 512, RanksPerNode: 16, NumTasks: 1}}
			tasks := []tasklog.Task{{ID: 3, JobID: 7, Block: machine.Block{Midplanes: 1}, Start: base, End: base.Add(time.Hour), Nodes: 512}}
			events := []raslog.Event{{RecID: 5, Time: base.Add(time.Minute), Sev: raslog.Fatal, JobID: 7}}
			if _, err := NewDataset(jobs, tasks, events, nil); err != nil {
				t.Fatalf("whole-second corpus rejected: %v", err)
			}
			c.edit(&jobs[0], &tasks[0], &events[0])
			_, err := NewDataset(jobs, tasks, events, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want one naming %s", err, c.want)
			}
		})
	}
}

func TestDatasetSortsEvents(t *testing.T) {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	jobs := []joblog.Job{{ID: 1, User: "u", Project: "p", Submit: base, Start: base, End: base.Add(time.Hour), Nodes: 512, RanksPerNode: 16, NumTasks: 1}}
	events := []raslog.Event{
		{RecID: 1, Time: base.Add(2 * time.Hour), Sev: raslog.Info},
		{RecID: 2, Time: base, Sev: raslog.Info},
	}
	d, err := NewDataset(jobs, nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.EventRecords()[0].RecID != 2 {
		t.Error("events not re-sorted by time")
	}
	// Span covers both jobs and events.
	start, end := d.Span()
	if !start.Equal(base) || !end.Equal(base.Add(2*time.Hour)) {
		t.Errorf("span = %v..%v", start, end)
	}
}

func TestSummarizeConsistent(t *testing.T) {
	d, c := dataset(t)
	s := d.Summarize()
	if s.Jobs != len(c.Jobs) || s.Tasks != len(c.Tasks) || s.RASTotal != len(c.Events) || s.IORecords != len(c.IO) {
		t.Errorf("summary counts wrong: %+v", s)
	}
	if s.FailedJobs+s.SuccessJobs != s.Jobs {
		t.Error("failed+success != jobs")
	}
	if s.RASFatal+s.RASWarn+s.RASInfo != s.RASTotal {
		t.Error("severity counts do not sum")
	}
	if s.Days < 89 || s.Days > 92 {
		t.Errorf("days = %v, want ≈90", s.Days)
	}
	if s.CoreHours <= 0 {
		t.Error("no core-hours")
	}
	if s.Users == 0 || s.Projects == 0 {
		t.Error("no users/projects")
	}
}

func TestClassifyByExitMatchesTruth(t *testing.T) {
	d, c := dataset(t)
	cls := d.ClassifyByExit()
	if cls.Total != len(c.Jobs) {
		t.Errorf("total = %d", cls.Total)
	}
	if cls.Failed != c.Truth.UserFailedJobs+c.Truth.SystemKilledJobs {
		t.Errorf("failed = %d, truth %d", cls.Failed, c.Truth.UserFailedJobs+c.Truth.SystemKilledJobs)
	}
	if cls.SystemCause != c.Truth.SystemKilledJobs {
		t.Errorf("system = %d, truth %d", cls.SystemCause, c.Truth.SystemKilledJobs)
	}
	if cls.UserCaused != c.Truth.UserFailedJobs {
		t.Errorf("user = %d, truth %d", cls.UserCaused, c.Truth.UserFailedJobs)
	}
	if cls.UserShare() < 0.95 {
		t.Errorf("user share = %v", cls.UserShare())
	}
	// The cause map partitions the job set.
	counts := map[Cause]int{}
	for _, cause := range cls.Causes {
		counts[cause]++
	}
	if counts[CauseNone]+counts[CauseUser]+counts[CauseSystem] != cls.Total {
		t.Error("causes do not partition jobs")
	}
}

func TestClassifyJointAgreesWithExit(t *testing.T) {
	d, c := dataset(t)
	exit := d.ClassifyByExit()
	joint := d.ClassifyJoint(DefaultJointOptions())
	if joint.Total != exit.Total || joint.Failed != exit.Failed {
		t.Fatalf("joint totals differ: %+v vs %+v", joint, exit)
	}
	// Joint must find every truth-killed job (they have attributed FATALs
	// or block-matching events at their end) and may add a few
	// coincidental matches (user failure near an idle-hardware event).
	if joint.SystemCause < c.Truth.SystemKilledJobs {
		t.Errorf("joint system %d < truth %d", joint.SystemCause, c.Truth.SystemKilledJobs)
	}
	extra := joint.SystemCause - c.Truth.SystemKilledJobs
	if float64(extra) > 0.02*float64(joint.Failed) {
		t.Errorf("joint over-attributes: %d extra of %d failed", extra, joint.Failed)
	}
	// Every exit-classified system job must be joint-classified system.
	for id, cause := range exit.Causes {
		if cause == CauseSystem && joint.Causes[id] != CauseSystem {
			t.Errorf("job %d: exit says system, joint says %v", id, joint.Causes[id])
		}
	}
}

func TestCauseString(t *testing.T) {
	for c, want := range map[Cause]string{
		CauseNone: "none", CauseUser: "user", CauseSystem: "system", Cause(9): "unknown",
	} {
		if c.String() != want {
			t.Errorf("Cause(%d) = %q", int(c), c.String())
		}
	}
}

func TestAggregateAndConcentration(t *testing.T) {
	d, c := dataset(t)
	cls := d.ClassifyByExit()
	users := d.Aggregate(ByUser, cls)
	if len(users) == 0 {
		t.Fatal("no user groups")
	}
	totJobs, totFailed := 0, 0
	for _, g := range users {
		totJobs += g.Jobs
		totFailed += g.Failed
		if g.FailRate < 0 || g.FailRate > 1 {
			t.Errorf("fail rate %v", g.FailRate)
		}
	}
	if totJobs != len(c.Jobs) {
		t.Errorf("group jobs %d != %d", totJobs, len(c.Jobs))
	}
	if totFailed != cls.Failed {
		t.Errorf("group failed %d != %d", totFailed, cls.Failed)
	}
	// Sorted by job count.
	for i := 1; i < len(users); i++ {
		if users[i].Jobs > users[i-1].Jobs {
			t.Fatal("groups not sorted")
		}
	}
	conc, err := d.Concentration(ByUser, cls)
	if err != nil {
		t.Fatal(err)
	}
	if conc.GiniJobs <= 0.2 {
		t.Errorf("workload should be skewed, gini = %v", conc.GiniJobs)
	}
	if conc.Top10JobShare <= float64(10)/float64(conc.Groups) {
		t.Errorf("top-10 share %v not above uniform", conc.Top10JobShare)
	}
	if conc.PearsonJobsFailures < 0.5 {
		t.Errorf("jobs↔failures correlation %v too weak", conc.PearsonJobsFailures)
	}
	if conc.CramersV <= 0.05 {
		t.Errorf("user↔outcome V = %v, want clearly > 0", conc.CramersV)
	}
	if len(users) < 5 || users[0].Jobs < users[4].Jobs {
		t.Error("groups not ordered by job count")
	}
	failTop := TopFailing(users, 5)
	for i := 1; i < len(failTop); i++ {
		if failTop[i].Failed > failTop[i-1].Failed {
			t.Error("TopFailing not sorted")
		}
	}
}

func TestFailureByStructure(t *testing.T) {
	d, c := dataset(t)
	for _, dim := range []StructureDim{DimNodes, DimTasks, DimCoreHours, DimRuntime} {
		res, err := NewJobOrders(d).FailureByStructure(dim)
		if err != nil {
			t.Fatalf("%v: %v", dim, err)
		}
		tot := 0
		for _, b := range res.Buckets {
			tot += b.Jobs
			if b.Failed > b.Jobs {
				t.Errorf("%v: bucket failed > jobs", dim)
			}
		}
		if tot != len(c.Jobs) {
			t.Errorf("%v: buckets cover %d of %d jobs", dim, tot, len(c.Jobs))
		}
		if math.IsNaN(res.SpearmanTrend) {
			t.Errorf("%v: NaN trend", dim)
		}
	}
	// Node buckets are the block sizes.
	res, _ := NewJobOrders(d).FailureByStructure(DimNodes)
	if len(res.Buckets) != 8 || res.Buckets[0].Lo != 512 {
		t.Errorf("node buckets = %+v", res.Buckets)
	}
}

func TestStructureSummary(t *testing.T) {
	d, c := dataset(t)
	s, err := NewJobOrders(d).StructureSummary()
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes.Min < 512 || s.Nodes.Max > 49152 {
		t.Errorf("node range [%v,%v]", s.Nodes.Min, s.Nodes.Max)
	}
	tot := 0
	for size, n := range s.SizeHistogram {
		if !machine.ValidBlockNodes(size) {
			t.Errorf("bad size %d in histogram", size)
		}
		tot += n
	}
	if tot != len(c.Jobs) {
		t.Errorf("size histogram covers %d jobs", tot)
	}
	if s.Tasks.Min < 1 {
		t.Error("tasks < 1")
	}
}

func TestExecutionLengthCDFs(t *testing.T) {
	d, _ := dataset(t)
	succ, fail := NewJobOrders(d).ExecutionLengthCDFs()
	if len(succ) == 0 || len(fail) == 0 {
		t.Fatal("empty CDFs")
	}
	// Sorted ascending.
	for i := 1; i < len(succ); i++ {
		if succ[i] < succ[i-1] {
			t.Fatal("success CDF unsorted")
		}
	}
	// Failed jobs skew shorter (infant mortality dominates the mix).
	if medianOf(fail) >= medianOf(succ) {
		t.Errorf("failed median %v ≥ success median %v", medianOf(fail), medianOf(succ))
	}
}

// medianOf returns the middle element of an ascending series, 0 when empty.
func medianOf(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)/2]
}

func TestTemporalProfile(t *testing.T) {
	d, c := dataset(t)
	p := d.Temporal()
	jobs, fails := 0, 0
	for h := 0; h < 24; h++ {
		jobs += p.JobsByHour[h]
		fails += p.FailsByHour[h]
	}
	if jobs != len(c.Jobs) {
		t.Errorf("hourly jobs %d != %d", jobs, len(c.Jobs))
	}
	cls := d.ClassifyByExit()
	if fails != cls.Failed {
		t.Errorf("hourly fails %d != %d", fails, cls.Failed)
	}
	// Diurnal pattern: night hours (modulated at 0.55) have fewer jobs.
	night := p.JobsByHour[3]
	day := p.JobsByHour[14]
	if night >= day {
		t.Errorf("night %d ≥ day %d, diurnal modulation missing", night, day)
	}
	// Monthly series covers ~3 months and sums correctly.
	if len(p.Months) < 3 || len(p.Months) > 5 {
		t.Errorf("months = %v", p.Months)
	}
	mj := 0
	for _, v := range p.JobsByMonth {
		mj += v
	}
	if mj != len(c.Jobs) {
		t.Errorf("monthly jobs %d != %d", mj, len(c.Jobs))
	}
	rates := p.FailRateByHour()
	for h, r := range rates {
		if r < 0 || r > 1 {
			t.Errorf("rate[%d] = %v", h, r)
		}
	}
}

func TestIOBehavior(t *testing.T) {
	d, _ := dataset(t)
	io, err := d.IOBehavior()
	if err != nil {
		t.Fatal(err)
	}
	if io.SampledJobs == 0 {
		t.Fatal("no sampled jobs")
	}
	// The injected model cuts failed jobs' I/O: success median must exceed
	// failed median clearly.
	if io.MedianRatio < 1.5 {
		t.Errorf("median ratio %v, want > 1.5", io.MedianRatio)
	}
	if io.KSBytes < 0.1 {
		t.Errorf("KS %v, want clear separation", io.KSBytes)
	}
	if io.SpearmanBytesOutcome <= 0 {
		t.Errorf("bytes↔success correlation %v, want positive", io.SpearmanBytesOutcome)
	}
}

func TestInterruptsByUser(t *testing.T) {
	d, _ := dataset(t)
	cls := d.ClassifyByExit()
	res, err := d.InterruptsByUser(cls)
	if err != nil {
		t.Fatal(err)
	}
	if res.Users == 0 || res.Interrupted == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	if res.PearsonCHInterrupts <= 0 {
		t.Errorf("core-hours↔interrupts r = %v, want positive", res.PearsonCHInterrupts)
	}
	if res.TopDecileShare <= 0.1 {
		t.Errorf("top decile share %v, want above uniform", res.TopDecileShare)
	}
}

// TestNewDatasetExtremeJobIDs covers job ids whose span overflows int64:
// the dense id index must decline them instead of sizing itself from the
// wrapped span.
func TestNewDatasetExtremeJobIDs(t *testing.T) {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	var jobs []joblog.Job
	for _, id := range []int64{math.MinInt64 + 1, 0, math.MaxInt64} {
		jobs = append(jobs, joblog.Job{ID: id, User: "u", Project: "p", Submit: base, Start: base, End: base.Add(time.Hour), Nodes: 512, RanksPerNode: 16, NumTasks: 1})
	}
	d, err := NewDataset(jobs, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if p, ok := d.jobPos(jobs[i].ID); !ok || p != i {
			t.Errorf("jobPos(%d) = %d, %v; want %d", jobs[i].ID, p, ok, i)
		}
	}
}
