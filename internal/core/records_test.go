package core

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/sim"
	"repro/internal/tasklog"
)

// byTime returns a copy of events stably sorted by time, the order a
// Dataset holds them in.
func byTime(events []raslog.Event) []raslog.Event {
	out := append([]raslog.Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// edgeEvents are hand-made rows at the edges of every event column: the
// zero Location next to the system's, record and job ids at the int64
// limits, job id 0, counts at both ends of [0, 2^31), every severity and
// times beyond the years a time.Duration spans. They are listed out of
// time order.
func edgeEvents(t testing.TB) []raslog.Event {
	t.Helper()
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	node, err := machine.Node(47, 1, 15, 31)
	if err != nil {
		t.Fatal(err)
	}
	return []raslog.Event{
		{RecID: math.MaxInt64, MsgID: "00040003", Comp: raslog.CompDDR, Cat: raslog.CatMemory, Sev: raslog.Fatal,
			Time: t0.Add(time.Hour), Loc: node, JobID: math.MaxInt64, Count: math.MaxInt32, Message: "last"},
		{RecID: math.MinInt64, MsgID: "", Comp: "", Cat: "", Sev: raslog.Info,
			Time: t0, Loc: machine.Location{}, JobID: math.MinInt64, Count: 0, Message: ""},
		{RecID: 0, MsgID: "00240001", Comp: raslog.CompMMCS, Cat: raslog.CatInfra, Sev: raslog.Info,
			Time: t0, Loc: machine.System(), JobID: 0, Count: 0, Message: "same second, listed after"},
		{RecID: 5, MsgID: "00040003", Comp: raslog.CompDDR, Cat: raslog.CatMemory, Sev: raslog.Warn,
			Time: time.Date(2500, 6, 1, 12, 0, 0, 0, time.UTC), Loc: machine.Location{}, JobID: -1, Count: 1, Message: "last"},
		{RecID: 6, MsgID: "00080003", Comp: raslog.CompND, Cat: raslog.CatNetwork, Sev: raslog.Warn,
			Time: time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), Loc: node, JobID: 1, Count: 2, Message: "first"},
	}
}

// TestEventRecordsRoundTrip is the record-rebuild oracle: EventRecords
// must deep-equal the time-sorted records the Dataset was built from, for
// the generated corpus, the same corpus read back from CSV, and the
// hand-made edge rows. The view holds the zero Location as the system, so
// that row comes back as machine.System().
func TestEventRecordsRoundTrip(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := raslog.WriteCSV(&csv, c.Events); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := raslog.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		jobs   []joblog.Job
		events []raslog.Event
	}{
		{"generated", c.Jobs, c.Events},
		{"csv", c.Jobs, fromCSV},
		{"edge rows", c.Jobs[:1], edgeEvents(t)},
	} {
		d, err := NewDataset(tc.jobs, nil, tc.events, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, want := d.EventRecords(), byTime(tc.events)
		for i := range want {
			if want[i].Loc == (machine.Location{}) {
				want[i].Loc = machine.System()
			}
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: %d records back for %d; first difference at row %d:\n got %+v\nwant %+v", tc.name, len(got), len(want), i, got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("%s: %d records back for %d", tc.name, len(got), len(want))
		}
		// EventRecordsAt rebuilds the rows asked for, in the order asked:
		// every third row, last first, so the location cache sees rows out
		// of order.
		var rows []int
		for i := len(want) - 1; i >= 0; i -= 3 {
			rows = append(rows, i)
		}
		at := EventRecordsAt(d.EventView(), rows)
		if len(at) != len(rows) {
			t.Fatalf("%s: EventRecordsAt gave %d records for %d rows", tc.name, len(at), len(rows))
		}
		for n, i := range rows {
			if !reflect.DeepEqual(at[n], want[i]) {
				t.Fatalf("%s: EventRecordsAt row %d:\n got %+v\nwant %+v", tc.name, i, at[n], want[i])
			}
		}
	}
}

// TestNewDatasetRejectsNarrowColumns pins the rejections the event view's
// column widths add: a severity beyond a byte and a count beyond an int32
// are errors naming the record.
func TestNewDatasetRejectsNarrowColumns(t *testing.T) {
	jobs := []joblog.Job{{ID: 1}}
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, e := range []raslog.Event{
		{RecID: 11, Time: t0, Sev: math.MaxUint8 + 1, Count: 1},
		{RecID: 12, Time: t0, Sev: -1, Count: 1},
		{RecID: 13, Time: t0, Sev: raslog.Info, Count: math.MaxInt32 + 1},
		{RecID: 14, Time: t0, Sev: raslog.Info, Count: math.MinInt32 - 1},
	} {
		_, err := NewDataset(jobs, nil, []raslog.Event{e}, nil)
		if err == nil || !strings.Contains(err.Error(), "event "+strconv.FormatInt(e.RecID, 10)+":") {
			t.Errorf("event %+v: error %v, want one naming the event", e, err)
		}
	}
}

// TestNewDatasetRejectsOutOfRangeEvents pins the view check's rejection
// of event values that fit their columns but not the log: severities
// outside Info..Fatal and a negative count, each an error naming the
// record, its view row, the field and the value.
func TestNewDatasetRejectsOutOfRangeEvents(t *testing.T) {
	jobs := []joblog.Job{{ID: 1}}
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		e    raslog.Event
		want string
	}{
		{raslog.Event{RecID: math.MinInt64, Time: t0, Sev: 0}, "core: event -9223372036854775808 (events row 0): severity 0 out of range"},
		{raslog.Event{RecID: 5, Time: t0, Sev: math.MaxUint8, Count: 1}, "core: event 5 (events row 0): severity 255 out of range"},
		{raslog.Event{RecID: 7, Time: t0, Sev: raslog.Fatal, Count: math.MinInt32}, "core: event 7 (events row 0): event count -2147483648 out of range [0, 2^31)"},
		{raslog.Event{RecID: 8, Time: t0, Sev: raslog.Info, Count: -1}, "core: event 8 (events row 0): event count -1 out of range [0, 2^31)"},
	} {
		_, err := NewDataset(jobs, nil, []raslog.Event{tc.e}, nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("event %+v: error %v, want %q", tc.e, err, tc.want)
		}
	}
}

// TestDatasetHoldsNoEventRecords walks the type graph of Dataset's fields
// (struct fields, pointer, slice, array and map element types) and fails
// if any of them reaches raslog.Event: the RAS log is resident only as
// its column view.
func TestDatasetHoldsNoEventRecords(t *testing.T) {
	datasetAvoids(t, reflect.TypeOf(raslog.Event{}))
}

// TestDatasetHoldsNoJobOrTaskRecords is the same walk for joblog.Job and
// tasklog.Task: the job and task logs are resident only as their column
// views and the per-job task index.
func TestDatasetHoldsNoJobOrTaskRecords(t *testing.T) {
	datasetAvoids(t, reflect.TypeOf(joblog.Job{}))
	datasetAvoids(t, reflect.TypeOf(tasklog.Task{}))
}

// datasetAvoids fails if Dataset's type graph reaches the record type.
func datasetAvoids(t *testing.T, record reflect.Type) {
	t.Helper()
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if ty == record {
			t.Errorf("Dataset reaches %v through %s", record, path)
			return
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"{key}")
			walk(ty.Elem(), path+"{}")
		}
	}
	walk(reflect.TypeOf(Dataset{}), "Dataset")
}

// splitRunCorpus is a corpus whose task log, in log order, holds a task
// of job 20, one of job 10, an orphan task (job 99 matches no job), a
// second run of two job 20 tasks and a second job 10 task: jobs 20 and 10
// each have tasks in two separate runs, and the tasks are not in job-id
// order. Job 30 has no tasks and job 10 no I/O record.
func splitRunCorpus() ([]joblog.Job, []tasklog.Task, []iolog.Record) {
	t0 := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	job := func(id int64, user, queue string, exit int) joblog.Job {
		return joblog.Job{ID: id, User: user, Project: "p-" + user, Queue: queue,
			Submit: t0, Start: t0.Add(time.Duration(id) * time.Minute), End: t0.Add(time.Duration(id) * time.Hour),
			WalltimeReq: 2 * time.Duration(id) * time.Hour, Nodes: 512 * int(id/10), RanksPerNode: 16, NumTasks: 2, ExitStatus: exit}
	}
	jobs := []joblog.Job{job(10, "ann", "prod", 0), job(20, "bo", "debug", joblog.ExitSigSegv), job(30, "ann", "prod", joblog.ExitSystemReserved)}
	task := func(id, jobID int64, base int) tasklog.Task {
		return tasklog.Task{ID: id, JobID: jobID, Block: machine.Block{BaseMidplane: base, Midplanes: 2},
			Start: t0.Add(time.Duration(id) * time.Minute), End: t0.Add(time.Duration(id) * time.Hour), Nodes: 1024, ExitStatus: int(id % 3)}
	}
	tasks := []tasklog.Task{task(1, 20, 0), task(2, 10, 2), task(3, 99, 4), task(4, 20, 6), task(5, 20, 8), task(6, 10, 10)}
	io := []iolog.Record{{JobID: 20, BytesRead: 1 << 30}, {JobID: 30, BytesWritten: 7}}
	return jobs, tasks, io
}

// edgeJobs are hand-made job rows at the edges of the job columns: node,
// ranks-per-node and task counts at both ends of [0, 2^31), exit statuses
// at the int32 limits, a zero and a 2^31-1 s walltime, empty strings in
// every dictionary.
func edgeJobs() []joblog.Job {
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	return []joblog.Job{
		{ID: 1, User: "", Project: "", Queue: "", Submit: t0, Start: t0, End: t0,
			WalltimeReq: 0, Nodes: math.MaxInt32, RanksPerNode: 0, NumTasks: math.MaxInt32, ExitStatus: math.MinInt32},
		{ID: 2, User: "u", Project: "p", Queue: "q", Submit: t0.Add(-time.Hour), Start: t0, End: t0.Add(time.Hour),
			WalltimeReq: math.MaxInt32 * time.Second, Nodes: 0, RanksPerNode: math.MaxInt32, NumTasks: 0, ExitStatus: math.MaxInt32},
	}
}

// TestJobTaskRecordsRoundTrip is the record-rebuild oracle of the job and
// task logs: JobRecords and TaskRecords must deep-equal the records the
// Dataset was built from — for the generated corpus, the same corpus read
// back from CSV, the split-run corpus and the edge job rows — and each
// job's task list must be its tasks in log order, the runs of a job split
// across the log concatenated and the orphan task in none.
func TestJobTaskRecordsRoundTrip(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var jobCSV, taskCSV bytes.Buffer
	if err := joblog.WriteCSV(&jobCSV, c.Jobs); err != nil {
		t.Fatal(err)
	}
	if err := tasklog.WriteCSV(&taskCSV, c.Tasks); err != nil {
		t.Fatal(err)
	}
	csvJobs, err := joblog.ReadCSV(&jobCSV)
	if err != nil {
		t.Fatal(err)
	}
	csvTasks, err := tasklog.ReadCSV(&taskCSV)
	if err != nil {
		t.Fatal(err)
	}
	splitJobs, splitTasks, splitIO := splitRunCorpus()
	for _, tc := range []struct {
		name  string
		jobs  []joblog.Job
		tasks []tasklog.Task
		io    []iolog.Record
	}{
		{"generated", c.Jobs, c.Tasks, c.IO},
		{"csv", csvJobs, csvTasks, c.IO},
		{"split runs", splitJobs, splitTasks, splitIO},
		{"edge jobs", edgeJobs(), nil, nil},
	} {
		d, err := NewDataset(tc.jobs, tc.tasks, nil, tc.io)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := d.JobRecords(); !reflect.DeepEqual(got, tc.jobs) {
			t.Fatalf("%s: job records differ after the rebuild", tc.name)
		}
		got := d.TaskRecords()
		if !reflect.DeepEqual(got, tc.tasks) {
			t.Fatalf("%s: task records differ after the rebuild", tc.name)
		}
		want := tasksByJobID(tc.tasks)
		listed := 0
		for row, j := range tc.jobs {
			var list []tasklog.Task
			for _, r := range d.tasksOf(row) {
				list = append(list, got[r])
			}
			listed += len(list)
			if !reflect.DeepEqual(list, want[j.ID]) {
				t.Fatalf("%s: job %d lists tasks %+v, want %+v", tc.name, j.ID, list, want[j.ID])
			}
		}
		if orphans := len(tc.tasks) - listed; tc.name == "split runs" && orphans != 1 {
			t.Fatalf("%s: %d tasks in no job's list, want the one orphan", tc.name, orphans)
		}
	}
}

// TestNewDatasetRejectsOutOfRangeCounts pins the count bound of the
// view check (CountInRange), which a mirapack load applies through the
// same check: a negative or a 2^31 s walltime, and negative node,
// ranks-per-node, task and task node counts fit their columns but not the
// bound, and each is an error naming its record, its view row, the field
// and the value, so every dataset NewDataset accepts reads back from a
// pack.
func TestNewDatasetRejectsOutOfRangeCounts(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(*joblog.Job, *tasklog.Task)
	}{
		{"negative walltime", "job 20 (jobs row 1): walltime -3600 out of range [0, 2^31)", func(j *joblog.Job, _ *tasklog.Task) { j.WalltimeReq = -time.Hour }},
		{"walltime 2^31 s", "job 20 (jobs row 1): walltime 2147483648 out of range [0, 2^31)", func(j *joblog.Job, _ *tasklog.Task) { j.WalltimeReq = 1 << 31 * time.Second }},
		{"negative nodes", "job 20 (jobs row 1): node count -512 out of range [0, 2^31)", func(j *joblog.Job, _ *tasklog.Task) { j.Nodes = -512 }},
		{"negative ranks", "job 20 (jobs row 1): ranks-per-node -1 out of range [0, 2^31)", func(j *joblog.Job, _ *tasklog.Task) { j.RanksPerNode = -1 }},
		{"negative tasks", "job 20 (jobs row 1): task count -2 out of range [0, 2^31)", func(j *joblog.Job, _ *tasklog.Task) { j.NumTasks = -2 }},
		{"negative task nodes", "task 1 (tasks row 0): node count -1024 out of range [0, 2^31)", func(_ *joblog.Job, k *tasklog.Task) { k.Nodes = -1024 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs, tasks, io := splitRunCorpus()
			tc.edit(&jobs[1], &tasks[0])
			_, err := NewDataset(jobs, tasks, nil, io)
			if err == nil || err.Error() != "core: "+tc.want {
				t.Fatalf("error %v, want %q", err, "core: "+tc.want)
			}
		})
	}
}

// TestNewDatasetRejectsNarrowJobColumns pins the rejections the job and
// task views' column widths and resolution add, each an error naming its
// record and field: a requested walltime finer than a second, a node,
// ranks-per-node or task count or exit status beyond an int32, and a
// task whose node count or exit status is beyond an int32 or whose block
// has no 16-bit code.
func TestNewDatasetRejectsNarrowJobColumns(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		edit       func(*joblog.Job, *tasklog.Task)
	}{
		{"walltime", "job 20: requested walltime 1h0m0.5s is finer than a second", func(j *joblog.Job, _ *tasklog.Task) { j.WalltimeReq = time.Hour + 500*time.Millisecond }},
		{"nodes", "job 20: node count 2147483648 does not fit an int32", func(j *joblog.Job, _ *tasklog.Task) { j.Nodes = math.MaxInt32 + 1 }},
		{"ranks", "job 20: ranks per node -2147483649 does not fit an int32", func(j *joblog.Job, _ *tasklog.Task) { j.RanksPerNode = math.MinInt32 - 1 }},
		{"tasks", "job 20: task count 4294967296 does not fit an int32", func(j *joblog.Job, _ *tasklog.Task) { j.NumTasks = 1 << 32 }},
		{"exit", "job 20: exit status 2147483648 does not fit an int32", func(j *joblog.Job, _ *tasklog.Task) { j.ExitStatus = math.MaxInt32 + 1 }},
		{"task nodes", "task 1: node count 2147483648 does not fit an int32", func(_ *joblog.Job, k *tasklog.Task) { k.Nodes = math.MaxInt32 + 1 }},
		{"task exit", "task 1: exit status -2147483649 does not fit an int32", func(_ *joblog.Job, k *tasklog.Task) { k.ExitStatus = math.MinInt32 - 1 }},
		{"task block", "task 1: block {BaseMidplane:256 Midplanes:2} does not fit a 16-bit block code", func(_ *joblog.Job, k *tasklog.Task) { k.Block.BaseMidplane = 256 }},
		{"task block extent", "task 1: block {BaseMidplane:0 Midplanes:256} does not fit a 16-bit block code", func(_ *joblog.Job, k *tasklog.Task) { k.Block.Midplanes = 256 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jobs, tasks, io := splitRunCorpus()
			tc.edit(&jobs[1], &tasks[0])
			_, err := NewDataset(jobs, tasks, nil, io)
			if err == nil || err.Error() != "core: "+tc.want {
				t.Fatalf("error %v, want %q", err, "core: "+tc.want)
			}
		})
	}
}
