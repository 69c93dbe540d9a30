// Package core implements the paper's contribution: the joint
// failure-analysis engine over the four Mira logs. It classifies job
// failures (user- vs system-caused), correlates failures with users,
// projects and job structure, fits candidate distributions to execution
// lengths per exit family, performs similarity-based RAS event filtering,
// and derives the system's mean time to interruption (MTTI), spatial
// locality and temporal patterns.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/par"
	"repro/internal/raslog"
	"repro/internal/scan"
	"repro/internal/tasklog"
)

// Dataset bundles the four logs with the indices the analyses share.
// Build one with NewDataset; the struct is read-only afterwards and safe
// for concurrent use. The job, task and RAS logs are held only as their
// column views (JobView, TaskView, EventView), the events in time order;
// JobRecords, TaskRecords and EventRecords rebuild their records.
type Dataset struct {
	IO []iolog.Record

	// ids holds the job ids in ascending order and byID maps each ids
	// position back to the job row; jobPos binary-searches ids.
	// Compared to a hash map the pair is built with one (usually no-op)
	// sort, costs twelve bytes per job, and needs no rehash or per-entry
	// allocation on the corpus-load hot path. Searching a contiguous int64
	// array keeps the hot upper tree levels in cache, unlike chasing job
	// rows through the permutation.
	ids  []int64
	byID []int32

	// Scheduler job ids are handed out sequentially, so a corpus slice
	// occupies a dense id range: posOf[id-idBase] resolves a job in O(1).
	// It stays nil for sparse id spaces, which fall back to the binary
	// search.
	posOf  []int32
	idBase int64

	// Per-job indexes aligned to the job rows. The tasks of job row i are
	// the task view rows taskRows[taskOff[i]:taskOff[i+1]], in log order:
	// a compressed sparse row index, one offset per job and one entry per
	// task whose job id matches a job. Tasks that match no job (orphans)
	// stay in the task view but in no job's list. ioOf[i] is a position
	// in IO, or -1 if the job has no I/O record.
	taskOff  []int32
	taskRows []int32
	ioOf     []int32

	// Severity-partitioned views into the events, derived from the event
	// view's severity column at construction: rows of FATAL and WARN
	// events in time order. Most analyses touch only these slivers
	// of the stream (FATALs are a tiny fraction of a RAS log), so they scan
	// the index instead of re-walking and re-testing every event.
	fatalIdx []int
	warnIdx  []int
	infoN    int // events that are neither FATAL nor WARN

	// Column views, set at construction: built from the records by
	// NewDataset, or adopted from the stored columns by mirapack. They are
	// the job, task and event logs; the fused scan engine and the
	// selection indexes read the job and event views.
	jobView   *scan.JobView
	taskView  *scan.TaskView
	eventView *scan.EventView

	// Interned similarity keys of the FATAL/WARN views, one entry per key
	// configuration (severity, Spatial, SameMessage), built lazily by the
	// filter entry points (filtering.go). Keys are window-independent, so
	// one interning serves every window an analysis sweeps.
	keyMu   sync.Mutex
	keyMemo map[keyConfig]*par.Memo[internedKeys]

	// Selection machinery: per-dimension bitmap indexes over the column
	// views plus the compiled-predicate cache, built lazily on the first
	// SelectJobs/SelectEvents/FusedScanWhere call (selindex.go).
	selx par.Memo[*selIndexes]

	// Whole-table scan state of the fused kernels and the joint attribution
	// index, built on the first FusedScan or cohort scan and reused by
	// every later one (fused.go).
	whole par.Memo[*wholeScan]

	start, end time.Time
}

// jobPos returns the job row of the job with the given id.
func (d *Dataset) jobPos(id int64) (int, bool) {
	if d.posOf != nil {
		off := id - d.idBase
		if off < 0 || off >= int64(len(d.posOf)) {
			return 0, false
		}
		if p := d.posOf[off]; p >= 0 {
			return int(p), true
		}
		return 0, false
	}
	ids := d.ids
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ids) && ids[lo] == id {
		return int(d.byID[lo]), true
	}
	return 0, false
}

// buildJobIndex builds ids/byID and rejects duplicate ids.
func (d *Dataset) buildJobIndex() error {
	jobIDs := d.jobView.ID
	d.ids = make([]int64, len(jobIDs))
	d.byID = make([]int32, len(jobIDs))
	sorted := true
	for i, id := range jobIDs {
		d.ids[i] = id
		d.byID[i] = int32(i)
		if i > 0 && id < jobIDs[i-1] {
			sorted = false
		}
	}
	if !sorted {
		byID, ids := d.byID, d.ids
		sort.Slice(byID, func(a, b int) bool { return jobIDs[byID[a]] < jobIDs[byID[b]] })
		for i, p := range byID {
			ids[i] = jobIDs[p]
		}
	}
	for i := 1; i < len(d.ids); i++ {
		if d.ids[i] == d.ids[i-1] {
			return viewErr("jobs", fmt.Sprintf("duplicate job id %d", d.ids[i]))
		}
	}
	if n := len(d.ids); n > 0 {
		// A span past MaxInt64 wraps negative; such ids stay sparse.
		if span := d.ids[n-1] - d.ids[0] + 1; span > 0 && span <= int64(4*n+64) {
			d.idBase = d.ids[0]
			d.posOf = make([]int32, span)
			for i := range d.posOf {
				d.posOf[i] = -1
			}
			for i, id := range d.ids {
				d.posOf[id-d.idBase] = d.byID[i]
			}
		}
	}
	return nil
}

// jobCursor resolves an ascending stream of job ids to job rows in
// O(1) amortized, advancing a cursor over the sorted index. An id that
// steps backwards falls back to a binary search without disturbing the
// cursor, so a mostly-sorted stream stays cheap.
type jobCursor struct {
	d *Dataset
	k int
}

func (c *jobCursor) pos(id int64) (int, bool) {
	ids := c.d.ids
	if c.k < len(ids) && ids[c.k] <= id {
		k := c.k
		for k < len(ids) && ids[k] < id {
			k++
		}
		c.k = k
		if k < len(ids) && ids[k] == id {
			return int(c.d.byID[k]), true
		}
		if k == len(ids) || ids[k] > id {
			return 0, false
		}
	}
	return c.d.jobPos(id)
}

// buildPerJob fills the task index (taskOff, taskRows) and ioOf. A
// scheduler log records a job's tasks consecutively, so tasks group into
// runs whose job ids follow execution order — close to id order but with
// local inversions. Each run resolves through the cursor (sequential
// advance when ascending, binary search over the compact sorted-ids array
// otherwise). One pass counts each job's tasks, a prefix sum turns the
// counts into offsets, and a second pass places the task rows, so a job
// whose tasks come in several runs lists them in log order; a run that
// matches no job is left out.
func (d *Dataset) buildPerJob() {
	jobIDs := d.taskView.JobID
	runs := func(f func(p int32, lo, hi int)) {
		cur := jobCursor{d: d}
		for i := 0; i < len(jobIDs); {
			id := jobIDs[i]
			j := i + 1
			for j < len(jobIDs) && jobIDs[j] == id {
				j++
			}
			if p, ok := cur.pos(id); ok {
				f(int32(p), i, j)
			}
			i = j
		}
	}
	off := make([]int32, d.jobView.N+1)
	runs(func(p int32, lo, hi int) { off[p+1] += int32(hi - lo) })
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	rows := make([]int32, off[len(off)-1])
	next := append([]int32(nil), off[:len(off)-1]...)
	runs(func(p int32, lo, hi int) {
		for t := lo; t < hi; t++ {
			rows[next[p]] = int32(t)
			next[p]++
		}
	})
	d.taskOff, d.taskRows = off, rows

	d.ioOf = make([]int32, d.jobView.N)
	for i := range d.ioOf {
		d.ioOf[i] = -1
	}
	cur := jobCursor{d: d}
	for i := range d.IO {
		id := d.IO[i].JobID
		if p, ok := cur.pos(id); ok {
			d.ioOf[p] = int32(i)
		}
	}
}

// tasksOf returns the task view rows of job row i, in log order.
func (d *Dataset) tasksOf(i int) []int32 { return d.taskRows[d.taskOff[i]:d.taskOff[i+1]] }

// wholeSeconds reports whether every time is a whole Unix second.
func wholeSeconds(ts ...time.Time) bool {
	for _, t := range ts {
		if t.Nanosecond() != 0 {
			return false
		}
	}
	return true
}

// NewDataset indexes the logs. Events are sorted by time if they are not
// already, stably, so events of one second keep their order; jobs and
// tasks are never reordered. The column views are built from the records,
// and the Dataset keeps the views, not the records.
//
// A corpus has the logs' resolution: every job, task and event timestamp
// and every requested walltime is a whole Unix second, in memory as on
// disk, so the column views' seconds lose nothing. A finer value is an
// error naming its record, and so is a field that does not fit its view
// column: a job's node, ranks-per-node or task count or exit status, a
// task's node count or exit status, or an event's count (an int32); an
// event's severity (a byte); a task's block (a 16-bit machine.Block.Code).
// Every other rule is NewDatasetFromViews' check of the views.
func NewDataset(jobs []joblog.Job, tasks []tasklog.Task, events []raslog.Event, ioRecs []iolog.Record) (*Dataset, error) {
	for i := range jobs {
		j := &jobs[i]
		if !wholeSeconds(j.Submit, j.Start, j.End) {
			return nil, fmt.Errorf("core: job %d: submit %s, start %s or end %s is finer than a second", j.ID, j.Submit, j.Start, j.End)
		}
		if j.WalltimeReq%time.Second != 0 {
			return nil, fmt.Errorf("core: job %d: requested walltime %s is finer than a second", j.ID, j.WalltimeReq)
		}
		if err := int32Fields("job", j.ID, field{"node count", j.Nodes}, field{"ranks per node", j.RanksPerNode},
			field{"task count", j.NumTasks}, field{"exit status", j.ExitStatus}); err != nil {
			return nil, err
		}
	}
	for i := range tasks {
		t := &tasks[i]
		if !wholeSeconds(t.Start, t.End) {
			return nil, fmt.Errorf("core: task %d: start %s or end %s is finer than a second", t.ID, t.Start, t.End)
		}
		if err := int32Fields("task", t.ID, field{"node count", t.Nodes}, field{"exit status", t.ExitStatus}); err != nil {
			return nil, err
		}
		if c := t.Block.Code(); c > math.MaxUint16 || blockOfCode(uint16(c)) != t.Block {
			return nil, fmt.Errorf("core: task %d: block %+v does not fit a 16-bit block code", t.ID, t.Block)
		}
	}
	if !sort.SliceIsSorted(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) }) {
		events = append([]raslog.Event(nil), events...)
		sort.SliceStable(events, func(i, j int) bool { return events[i].Time.Before(events[j].Time) })
	}
	for i := range events {
		e := &events[i]
		if !wholeSeconds(e.Time) {
			return nil, fmt.Errorf("core: event %d: time %s is finer than a second", e.RecID, e.Time)
		}
		if e.Sev < 0 || e.Sev > math.MaxUint8 {
			return nil, fmt.Errorf("core: event %d: severity %d does not fit a byte", e.RecID, int(e.Sev))
		}
		if !fitsInt32(e.Count) {
			return nil, fmt.Errorf("core: event %d: count %d does not fit an int32", e.RecID, e.Count)
		}
	}
	return NewDatasetFromViews(ioRecs, BuildJobView(jobs), BuildTaskView(tasks), BuildEventView(events))
}

// fitsInt32 reports whether v fits an int32 column.
func fitsInt32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// field is a named integer field of a record.
type field struct {
	name string
	v    int
}

// int32Fields checks a record's fields against their int32 columns and
// names the first that does not fit.
func int32Fields(kind string, id int64, fields ...field) error {
	for _, f := range fields {
		if !fitsInt32(f.v) {
			return fmt.Errorf("core: %s %d: %s %d does not fit an int32", kind, id, f.name, f.v)
		}
	}
	return nil
}

// NewDatasetFromViews indexes the logs over their column views. It is the
// constructor every Dataset goes through, NewDataset's and a mirapack
// load's, and the one gate on what the logs may hold: every column of a
// view must have its N rows, and every row must pass the checks of
// check.go (checkJobs, checkTasks, checkEvents), which include events in
// time order. The job view must hold at least one row and unique ids. A
// failed row check is a *ViewError.
//
// Two goroutines share the work with no serial tail: one checks the
// events and splits them by severity, the other checks the jobs and tasks
// and builds the job index, the per-job task index and the I/O rows. The
// error returned is the first in the order events, jobs, tasks, whichever
// goroutine finished first.
func NewDatasetFromViews(ioRecs []iolog.Record, jv *scan.JobView, tv *scan.TaskView, ev *scan.EventView) (*Dataset, error) {
	if jv == nil || tv == nil || ev == nil || !jobColumnsAligned(jv) || !taskColumnsAligned(tv) || !eventColumnsAligned(ev) {
		return nil, errViews
	}
	d := &Dataset{IO: ioRecs, jobView: jv, taskView: tv, eventView: ev}
	var errs [2]error
	if err := par.ForEach(context.Background(), 2, 2, func(i int) error {
		if i == 0 {
			errs[0] = d.checkEvents()
		} else {
			errs[1] = d.indexJobs()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Events widen the jobs' window in an else-if walk, which cohortSpan
	// reproduces for a selection. Over times in order the walk changes
	// nothing after its first event but through the last one, so it runs
	// on those two alone.
	start, end := d.start.Unix(), d.end.Unix()
	widen := func(t int64) {
		if t < start {
			start = t
		} else if t > end {
			end = t
		}
	}
	if n := len(ev.TimeUnix); n > 0 {
		widen(ev.TimeUnix[0])
		if n > 1 {
			widen(ev.TimeUnix[n-1])
		}
	}
	d.start, d.end = time.Unix(start, 0).UTC(), time.Unix(end, 0).UTC()
	return d, nil
}

var errViews = fmt.Errorf("core: column views missing, or with columns of other than N rows")

// indexJobs checks the job and task views and indexes the job, task and
// I/O logs: the job-id index, the per-job task index, the I/O rows and
// the jobs' share of the observation window.
func (d *Dataset) indexJobs() error {
	jv := d.jobView
	if jv.N == 0 {
		return viewErr("jobs", "dataset has no jobs")
	}
	if err := checkJobs(jv); err != nil {
		return err
	}
	if err := checkTasks(d.taskView); err != nil {
		return err
	}
	if err := d.buildJobIndex(); err != nil {
		return err
	}
	d.buildPerJob()
	// The first job seeds the window and every job widens it by its
	// submit and end.
	start, end := jv.SubmitUnix[0], jv.EndUnix[0]
	for i := range jv.SubmitUnix {
		start, end = min(start, jv.SubmitUnix[i]), max(end, jv.EndUnix[i])
	}
	d.start, d.end = time.Unix(start, 0), time.Unix(end, 0)
	return nil
}

// jobColumnsAligned reports whether every column of the job view has N
// rows.
func jobColumnsAligned(v *scan.JobView) bool {
	return columnsAligned(v.N, len(v.ID), len(v.SubmitUnix), len(v.StartUnix), len(v.EndUnix), len(v.DurSec),
		len(v.Nodes), len(v.CoreSec), len(v.Exit), len(v.Family), len(v.UserID), len(v.ProjectID), len(v.QueueID),
		len(v.WalltimeSec), len(v.RanksPerNode), len(v.NumTasks))
}

// taskColumnsAligned reports whether every column of the task view has N
// rows.
func taskColumnsAligned(v *scan.TaskView) bool {
	return columnsAligned(v.N, len(v.ID), len(v.JobID), len(v.Block), len(v.StartUnix), len(v.EndUnix), len(v.Nodes), len(v.Exit))
}

// eventColumnsAligned reports whether every column of the event view has
// N rows.
func eventColumnsAligned(v *scan.EventView) bool {
	return columnsAligned(v.N, len(v.TimeUnix), len(v.Sev), len(v.CatID), len(v.CompID), len(v.MidplaneID), len(v.RackID),
		len(v.RecID), len(v.JobID), len(v.MsgID), len(v.Msg), len(v.LocCode), len(v.Count))
}

// columnsAligned reports whether every column length is n.
func columnsAligned(n int, lens ...int) bool {
	for _, l := range lens {
		if l != n {
			return false
		}
	}
	return true
}

// Span returns the observation window covered by the dataset.
func (d *Dataset) Span() (start, end time.Time) { return d.start, d.end }

// Days returns the observation span in (fractional) days.
func (d *Dataset) Days() float64 { return d.end.Sub(d.start).Hours() / 24 }

// Summary holds the dataset-level statistics of Table I.
type Summary struct {
	Days        float64
	Jobs        int
	Tasks       int
	Users       int
	Projects    int
	CoreHours   float64
	RASTotal    int
	RASFatal    int
	RASWarn     int
	RASInfo     int
	IORecords   int
	FailedJobs  int
	SuccessJobs int
}
