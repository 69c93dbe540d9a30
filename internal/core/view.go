package core

import (
	"math"
	"time"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
	"repro/internal/tasklog"
)

// BuildJobView constructs the job column view from AoS records, every
// field of each record in its column. Dictionaries are interned in
// first-appearance order, the order a mirapack file stores them in, so
// built and pack-loaded views are identical. Counts and exit
// statuses are narrowed to the column widths and the requested walltime
// to whole seconds; NewDataset rejects records that do not fit.
func BuildJobView(jobs []joblog.Job) *scan.JobView {
	n := len(jobs)
	v := &scan.JobView{
		N:            n,
		ID:           make([]int64, n),
		SubmitUnix:   make([]int64, n),
		StartUnix:    make([]int64, n),
		EndUnix:      make([]int64, n),
		DurSec:       make([]int64, n),
		Nodes:        make([]int32, n),
		CoreSec:      make([]int64, n),
		Exit:         make([]int32, n),
		Family:       make([]uint8, n),
		UserID:       make([]int32, n),
		ProjectID:    make([]int32, n),
		QueueID:      make([]int32, n),
		WalltimeSec:  make([]int64, n),
		RanksPerNode: make([]int32, n),
		NumTasks:     make([]int32, n),
	}
	users, projects, queues := dict{}, dict{}, dict{}
	for i := range jobs {
		j := &jobs[i]
		v.ID[i] = j.ID
		v.SubmitUnix[i] = j.Submit.Unix()
		v.StartUnix[i] = j.Start.Unix()
		v.EndUnix[i] = j.End.Unix()
		v.DurSec[i] = v.EndUnix[i] - v.StartUnix[i]
		v.Nodes[i] = int32(j.Nodes)
		v.CoreSec[i] = int64(v.Nodes[i]) * 16 * v.DurSec[i]
		v.Exit[i] = int32(j.ExitStatus)
		v.Family[i] = joblog.FamilyCodeOf(j.ExitStatus)
		v.UserID[i] = users.intern(&v.Users, j.User)
		v.ProjectID[i] = projects.intern(&v.Projects, j.Project)
		v.QueueID[i] = queues.intern(&v.Queues, j.Queue)
		v.WalltimeSec[i] = int64(j.WalltimeReq / time.Second)
		v.RanksPerNode[i] = int32(j.RanksPerNode)
		v.NumTasks[i] = int32(j.NumTasks)
	}
	return v
}

// BuildTaskView constructs the task column view from AoS records, in
// their order. Blocks become their machine.Block.Code and node counts and
// exit statuses are narrowed to int32; NewDataset rejects records that do
// not fit.
func BuildTaskView(tasks []tasklog.Task) *scan.TaskView {
	n := len(tasks)
	v := &scan.TaskView{
		N:         n,
		ID:        make([]int64, n),
		JobID:     make([]int64, n),
		Block:     make([]uint16, n),
		StartUnix: make([]int64, n),
		EndUnix:   make([]int64, n),
		Nodes:     make([]int32, n),
		Exit:      make([]int32, n),
	}
	for i := range tasks {
		t := &tasks[i]
		v.ID[i] = t.ID
		v.JobID[i] = t.JobID
		v.Block[i] = uint16(t.Block.Code())
		v.StartUnix[i] = t.Start.Unix()
		v.EndUnix[i] = t.End.Unix()
		v.Nodes[i] = int32(t.Nodes)
		v.Exit[i] = int32(t.ExitStatus)
	}
	return v
}

// BuildEventView constructs the event column view from AoS records,
// every field of each record in its column. Dictionaries are interned in
// first-appearance order, the order a mirapack file stores them in, so a
// built view and a pack-loaded one are identical. Severities and counts
// are narrowed to the column widths; NewDataset rejects records that do
// not fit.
func BuildEventView(events []raslog.Event) *scan.EventView {
	n := len(events)
	v := &scan.EventView{
		N:          n,
		TimeUnix:   make([]int64, n),
		Sev:        make([]uint8, n),
		CatID:      make([]int32, n),
		CompID:     make([]int32, n),
		MidplaneID: make([]int32, n),
		RackID:     make([]int32, n),
		RecID:      make([]int64, n),
		JobID:      make([]int64, n),
		MsgID:      make([]int32, n),
		Msg:        make([]int32, n),
		LocCode:    make([]int32, n),
		Count:      make([]int32, n),
	}
	cats, comps := dict{}, dict{}
	msgIDs, msgs := dict{}, dict{}
	for i := range events {
		e := &events[i]
		v.TimeUnix[i] = e.Time.Unix()
		v.Sev[i] = uint8(e.Sev)
		v.CatID[i] = cats.intern(&v.Cats, string(e.Cat))
		v.CompID[i] = comps.intern(&v.Comps, string(e.Comp))
		v.MidplaneID[i], v.RackID[i] = LocIDs(e.Loc)
		v.RecID[i] = e.RecID
		v.JobID[i] = e.JobID
		v.MsgID[i] = msgIDs.intern(&v.MsgIDs, e.MsgID)
		v.Msg[i] = msgs.intern(&v.Messages, e.Message)
		v.LocCode[i] = locCode(e.Loc)
		v.Count[i] = int32(e.Count)
	}
	return v
}

// dict interns strings to dense codes in first-appearance order.
type dict map[string]int32

// intern returns s's code, appending s to table when it is new.
func (m dict) intern(table *[]string, s string) int32 {
	c, ok := m[s]
	if !ok {
		c = int32(len(*table))
		m[s] = c
		*table = append(*table, s)
	}
	return c
}

// locCode returns the event view's code of a location (scan.EventView
// LocCode): its machine.Location.Code. The zero Location, which Code
// folds into the system's, gets the system's code and reads back as
// machine.System(), as from a mirapack file.
func locCode(loc machine.Location) int32 { return int32(loc.Code()) }

// locOfCode reverses locCode. A view's codes passed NewDatasetFromViews'
// checks, so the decode cannot fail.
func locOfCode(c int32) machine.Location {
	loc, _ := machine.LocationFromCode(uint32(c))
	return loc
}

// epoch-relative construction: time.Unix(sec, 0).UTC() stores a location
// pointer twice per call (write-barriered during GC); Add on a UTC base
// produces the identical Time value with plain integer arithmetic. Record
// rebuilds build hundreds of thousands of
// timestamps at a time.
var epoch = time.Unix(0, 0).UTC()

// maxDurationSec is the largest second count a time.Duration holds.
const maxDurationSec = math.MaxInt64 / int64(time.Second)

// UnixTime returns the UTC time of a Unix second, the value time.Unix(sec,
// 0).UTC() returns. Seconds a Duration holds (years 1678 to 2262) take
// the epoch-relative path; the rest go through time.Unix.
func UnixTime(sec int64) time.Time {
	if sec < -maxDurationSec || sec > maxDurationSec {
		return time.Unix(sec, 0).UTC()
	}
	return epoch.Add(time.Duration(sec) * time.Second)
}

// EventRecordsOf rebuilds the RAS records from an event view: a fresh
// slice the caller owns, row i from view row i, nil when there are none.
// Times are UTC; every other field is the one the view was built or
// decoded from.
func EventRecordsOf(v *scan.EventView) []raslog.Event {
	if v == nil || v.N == 0 {
		return nil
	}
	events := make([]raslog.Event, v.N)
	var r recordBuilder
	for i := range events {
		r.fill(&events[i], v, i)
	}
	return events
}

// EventRecordsAt rebuilds the records of the given view rows, in the
// order listed: a fresh slice the caller owns, nil when rows is empty.
func EventRecordsAt(v *scan.EventView, rows []int) []raslog.Event {
	if len(rows) == 0 {
		return nil
	}
	events := make([]raslog.Event, len(rows))
	var r recordBuilder
	for n, i := range rows {
		r.fill(&events[n], v, i)
	}
	return events
}

// recordBuilder rebuilds records row by row, decoding a location code
// only when it differs from the previous row's. Its zero value holds code
// 0, which no checked view holds, so the first row decodes its code.
type recordBuilder struct {
	code int32
	loc  machine.Location
}

// fill sets e to the record of view row i.
func (r *recordBuilder) fill(e *raslog.Event, v *scan.EventView, i int) {
	if c := v.LocCode[i]; c != r.code {
		r.loc, r.code = locOfCode(c), c
	}
	e.RecID = v.RecID[i]
	e.MsgID = v.MsgIDs[v.MsgID[i]]
	e.Comp = raslog.Component(v.Comps[v.CompID[i]])
	e.Cat = raslog.Category(v.Cats[v.CatID[i]])
	e.Sev = raslog.Severity(v.Sev[i])
	e.Time = UnixTime(v.TimeUnix[i])
	e.Loc = r.loc
	e.JobID = v.JobID[i]
	e.Message = v.Messages[v.Msg[i]]
	e.Count = int(v.Count[i])
}

// EventRecords rebuilds the dataset's RAS records, in time order, from
// its event view: a fresh slice the caller owns. The Dataset keeps no
// records; this is for the callers that print or re-encode them.
func (d *Dataset) EventRecords() []raslog.Event { return EventRecordsOf(d.eventView) }

// jobRecord sets j to the record of job view row i. Times are UTC.
func jobRecord(j *joblog.Job, v *scan.JobView, i int) {
	j.ID = v.ID[i]
	j.User = v.Users[v.UserID[i]]
	j.Project = v.Projects[v.ProjectID[i]]
	j.Queue = v.Queues[v.QueueID[i]]
	j.Submit = UnixTime(v.SubmitUnix[i])
	j.Start = UnixTime(v.StartUnix[i])
	j.End = UnixTime(v.EndUnix[i])
	j.WalltimeReq = time.Duration(v.WalltimeSec[i]) * time.Second
	j.Nodes = int(v.Nodes[i])
	j.RanksPerNode = int(v.RanksPerNode[i])
	j.NumTasks = int(v.NumTasks[i])
	j.ExitStatus = int(v.Exit[i])
}

// blockOfCode reverses machine.Block.Code for a task view's block code,
// without machine.BlockFromCode's geometry check: the view holds whatever
// block a task record held.
func blockOfCode(c uint16) machine.Block {
	return machine.Block{BaseMidplane: int(c >> 8), Midplanes: int(c & 0xff)}
}

// taskRecord sets t to the record of task view row i. Times are UTC.
func taskRecord(t *tasklog.Task, v *scan.TaskView, i int) {
	t.ID = v.ID[i]
	t.JobID = v.JobID[i]
	t.Block = blockOfCode(v.Block[i])
	t.Start = UnixTime(v.StartUnix[i])
	t.End = UnixTime(v.EndUnix[i])
	t.Nodes = int(v.Nodes[i])
	t.ExitStatus = int(v.Exit[i])
}

// JobRecords rebuilds the dataset's job records, in log order, from its
// job view: a fresh slice the caller owns. The Dataset keeps no records;
// this is for the callers that print or re-encode them.
func (d *Dataset) JobRecords() []joblog.Job {
	v := d.jobView
	jobs := make([]joblog.Job, v.N)
	for i := range jobs {
		jobRecord(&jobs[i], v, i)
	}
	return jobs
}

// TaskRecords rebuilds the dataset's task records, in log order and
// orphan tasks (whose job id matches no job) included, from its task
// view: a fresh slice the caller owns, nil when there are none.
func (d *Dataset) TaskRecords() []tasklog.Task {
	v := d.taskView
	if v.N == 0 {
		return nil
	}
	tasks := make([]tasklog.Task, v.N)
	for i := range tasks {
		taskRecord(&tasks[i], v, i)
	}
	return tasks
}

// LocIDs maps a location to its dense midplane and rack ids, -1 where the
// location is coarser than the level. NewDatasetFromViews checks the
// event view's midplane and rack columns against it.
func LocIDs(loc machine.Location) (midplane, rack int32) {
	midplane, rack = -1, -1
	if lvl := loc.Level(); lvl >= machine.LevelMidplane {
		rack = int32(loc.RackIndex())
		midplane = rack*machine.MidplanesPerRack + int32(loc.MidplaneOrdinal())
	} else if lvl == machine.LevelRack {
		rack = int32(loc.RackIndex())
	}
	return midplane, rack
}

// JobView returns the dataset's job log as columns, in log order: the
// only form the Dataset holds it in. The view is immutable and safe for
// concurrent use.
func (d *Dataset) JobView() *scan.JobView { return d.jobView }

// TaskView returns the dataset's task log as columns, in log order: the
// only form the Dataset holds it in. The view is immutable and safe for
// concurrent use.
func (d *Dataset) TaskView() *scan.TaskView { return d.taskView }

// EventView returns the dataset's event log as columns, in time order:
// the only form the Dataset holds it in. The view is immutable and safe
// for concurrent use.
func (d *Dataset) EventView() *scan.EventView { return d.eventView }
