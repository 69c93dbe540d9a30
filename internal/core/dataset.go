// Package core implements the paper's contribution: the joint
// failure-analysis engine over the four Mira logs. It classifies job
// failures (user- vs system-caused), correlates failures with users,
// projects and job structure, fits candidate distributions to execution
// lengths per exit family, performs similarity-based RAS event filtering,
// and derives the system's mean time to interruption (MTTI), spatial
// locality and temporal patterns.
package core

import (
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
// for concurrent use. The RAS log is held only as its column view
// (EventView), in time order; EventRecords rebuilds its records.
type Dataset struct {
	Jobs  []joblog.Job
	Tasks []tasklog.Task
	IO    []iolog.Record

	// ids holds the job ids in ascending order and byID maps each ids
	// position back to the Jobs position; Job() binary-searches ids.
	// Compared to a hash map the pair is built with one (usually no-op)
	// sort, costs twelve bytes per job, and needs no rehash or per-entry
	// allocation on the corpus-load hot path. Searching a contiguous int64
	// array keeps the hot upper tree levels in cache, unlike chasing job
	// structs through the permutation.
	ids  []int64
	byID []int32

	// Scheduler job ids are handed out sequentially, so a corpus slice
	// occupies a dense id range: posOf[id-idBase] resolves a job in O(1).
	// It stays nil for sparse id spaces, which fall back to the binary
	// search.
	posOf  []int32
	idBase int64

	// Per-job indexes aligned to Jobs: tasksOf[i] belongs to Jobs[i];
	// ioOf[i] is a position in IO, or -1 if the job has no I/O record.
	tasksOf [][]tasklog.Task
	ioOf    []int32

	// Tasks referencing a job id that matches no job land in the orphan
	// map, preserving lookup behavior for inconsistent logs. It stays nil
	// for consistent corpora.
	orphanTasks map[int64][]tasklog.Task

	// Severity-partitioned views into the events, derived from the event
	// view's severity column at construction: rows of FATAL and WARN
	// events in time order. Most analyses touch only these slivers
	// of the stream (FATALs are a tiny fraction of a RAS log), so they scan
	// the index instead of re-walking and re-testing every event.
	fatalIdx []int
	warnIdx  []int
	infoN    int // events that are neither FATAL nor WARN

	// Column views for the fused scan engine and the selection indexes,
	// set at construction: built from the records by NewDataset, or
	// decoded from the stored columns by mirapack. jobView mirrors the hot
	// job columns of Jobs; eventView is the whole event log.
	jobView   *scan.JobView
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

// jobPos returns the position in Jobs of the job with the given id.
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
	jobs := d.Jobs
	d.ids = make([]int64, len(jobs))
	d.byID = make([]int32, len(jobs))
	sorted := true
	for i := range jobs {
		d.ids[i] = jobs[i].ID
		d.byID[i] = int32(i)
		if i > 0 && jobs[i].ID < jobs[i-1].ID {
			sorted = false
		}
	}
	if !sorted {
		byID, ids := d.byID, d.ids
		sort.Slice(byID, func(a, b int) bool { return jobs[byID[a]].ID < jobs[byID[b]].ID })
		for i, p := range byID {
			ids[i] = jobs[p].ID
		}
	}
	for i := 1; i < len(d.ids); i++ {
		if d.ids[i] == d.ids[i-1] {
			return fmt.Errorf("core: duplicate job id %d", d.ids[i])
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

// jobCursor resolves an ascending stream of job ids to Jobs positions in
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

// buildPerJob fills the tasksOf and ioOf indexes. A scheduler log records a
// job's tasks consecutively, so tasks group into runs, each adopted as a
// (capped) subslice without copying; a job id split across runs falls back
// to concatenating.
func (d *Dataset) buildPerJob() error {
	// Tasks group into contiguous runs (a scheduler log records a job's
	// tasks consecutively) whose job ids follow execution order — close to
	// id order but with local inversions. Each run resolves through the
	// cursor (sequential advance when ascending, binary search over the
	// compact sorted-ids array otherwise) and is adopted as a (capped)
	// subslice without copying; a job id split across runs concatenates.
	d.tasksOf = make([][]tasklog.Task, len(d.Jobs))
	tasks := d.Tasks
	cur := jobCursor{d: d}
	for i := 0; i < len(tasks); {
		id := tasks[i].JobID
		j := i
		for ; j < len(tasks) && tasks[j].JobID == id; j++ {
			if t := &tasks[j]; !wholeSeconds(t.Start, t.End) {
				return fmt.Errorf("core: task %d: start %s or end %s is finer than a second", t.ID, t.Start, t.End)
			}
		}
		span := tasks[i:j:j]
		if p, ok := cur.pos(id); ok {
			if prev := d.tasksOf[p]; prev == nil {
				d.tasksOf[p] = span
			} else {
				d.tasksOf[p] = append(prev[:len(prev):len(prev)], span...)
			}
		} else {
			if d.orphanTasks == nil {
				d.orphanTasks = map[int64][]tasklog.Task{}
			}
			d.orphanTasks[id] = append(d.orphanTasks[id], span...)
		}
		i = j
	}
	d.ioOf = make([]int32, len(d.Jobs))
	for i := range d.ioOf {
		d.ioOf[i] = -1
	}
	cur = jobCursor{d: d}
	for i := range d.IO {
		id := d.IO[i].JobID
		if p, ok := cur.pos(id); ok {
			d.ioOf[p] = int32(i)
		}
	}
	return nil
}

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
// and the Dataset keeps the event view, not the events.
//
// A corpus has the logs' resolution: every job, task and event timestamp
// is a whole Unix second, in memory as on disk, so the column views'
// Unix seconds lose nothing. A finer timestamp is an error naming its
// record, and so is an event whose severity or count does not fit its
// view column (a byte, an int32).
func NewDataset(jobs []joblog.Job, tasks []tasklog.Task, events []raslog.Event, ioRecs []iolog.Record) (*Dataset, error) {
	for i := range jobs {
		if j := &jobs[i]; !wholeSeconds(j.Submit, j.Start, j.End) {
			return nil, fmt.Errorf("core: job %d: submit %s, start %s or end %s is finer than a second", j.ID, j.Submit, j.Start, j.End)
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
		if e.Count < math.MinInt32 || e.Count > math.MaxInt32 {
			return nil, fmt.Errorf("core: event %d: count %d does not fit an int32", e.RecID, e.Count)
		}
	}
	return NewDatasetFromViews(jobs, tasks, ioRecs, BuildJobView(jobs), BuildEventView(events))
}

// NewDatasetFromViews indexes the logs over column views built
// elsewhere: the mirapack decoder fills both views from the stored
// columns. It is the constructor NewDataset ends in. The job view must
// hold one row per job, the event view's times must not decrease (it is
// the event log, in time order), and job ids must be unique. The
// severity views and the observation window are derived from the view
// columns in one pass.
func NewDatasetFromViews(jobs []joblog.Job, tasks []tasklog.Task, ioRecs []iolog.Record, jv *scan.JobView, ev *scan.EventView) (*Dataset, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: dataset has no jobs")
	}
	if jv == nil || ev == nil || jv.N != len(jobs) || !eventColumnsAligned(ev) {
		return nil, fmt.Errorf("core: column views missing, without one row per job (%d) or with event columns of other than N rows", len(jobs))
	}
	d := &Dataset{Jobs: jobs, Tasks: tasks, IO: ioRecs, jobView: jv, eventView: ev}
	if err := d.buildJobIndex(); err != nil {
		return nil, err
	}
	if err := d.buildPerJob(); err != nil {
		return nil, err
	}
	// The first job seeds the window and every job widens it by its submit
	// and end; events then widen it in an else-if walk, which cohortSpan
	// reproduces for a selection.
	start, end := jv.SubmitUnix[0], jv.EndUnix[0]
	for i := range jv.SubmitUnix {
		start, end = min(start, jv.SubmitUnix[i]), max(end, jv.EndUnix[i])
	}
	times, sevs := ev.TimeUnix, ev.Sev[:len(ev.TimeUnix)]
	for i, t := range times {
		if i > 0 && t < times[i-1] {
			return nil, fmt.Errorf("core: event %d at unix %d precedes the event before it (unix %d): events are not in time order", ev.RecID[i], t, times[i-1])
		}
		if t < start {
			start = t
		} else if t > end {
			end = t
		}
		switch raslog.Severity(sevs[i]) {
		case raslog.Fatal:
			d.fatalIdx = append(d.fatalIdx, i)
		case raslog.Warn:
			d.warnIdx = append(d.warnIdx, i)
		default:
			d.infoN++
		}
	}
	d.start, d.end = time.Unix(start, 0).UTC(), time.Unix(end, 0).UTC()
	return d, nil
}

// eventColumnsAligned reports whether every column of the event view has
// N rows.
func eventColumnsAligned(v *scan.EventView) bool {
	for _, n := range [...]int{
		len(v.TimeUnix), len(v.Sev), len(v.CatID), len(v.CompID), len(v.MidplaneID), len(v.RackID),
		len(v.RecID), len(v.JobID), len(v.MsgID), len(v.Msg), len(v.LocCode), len(v.Count),
	} {
		if n != v.N {
			return false
		}
	}
	return true
}

// Span returns the observation window covered by the dataset.
func (d *Dataset) Span() (start, end time.Time) { return d.start, d.end }

// Days returns the observation span in (fractional) days.
func (d *Dataset) Days() float64 { return d.end.Sub(d.start).Hours() / 24 }

// Job returns the job with the given ID.
func (d *Dataset) Job(id int64) (*joblog.Job, bool) {
	if p, ok := d.jobPos(id); ok {
		return &d.Jobs[p], true
	}
	return nil, false
}

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
