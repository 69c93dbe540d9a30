package pack

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
	"repro/internal/tasklog"
)

// Per-log section payloads. Each starts with a uvarint row count and then
// the columns in the fixed order below; the column order is part of the
// format (DESIGN.md §10) and may only change with a version bump.
//
// The decoders run each column as one tight loop: no string hashing
// (dictionary rows share the table's backing), and the short varint fast
// paths inlined — this loop is the whole point of the format, so it is
// kept allocation-free beyond the output and one scratch arena. A column
// the scan views keep as stored decodes straight into its view column.
// The jobs, tasks and events decoders build no records: every stored
// column but a few whose width differs from their view column's (job
// walltimes and exit statuses, task blocks and exit statuses, event
// severities) is a view column. The I/O decoder takes one column of
// scratch and copies each column into the records as it is decoded, so
// the decoder running beside the events one needs little scratch of its
// own (Unmarshal).

// arena hands out scratch column space shared across the section decodes
// of one goroutine: the transient decode buffers are allocated (and
// zeroed) once per load rather than once per section. Scratch never
// outlives its decoder — every value is copied into the output before
// the next take. Columns with bounded values use the int32 pool, halving
// their scratch footprint.
type arena struct {
	buf   []int64
	buf32 []int32
}

func (a *arena) take(n int) []int64 {
	if cap(a.buf) < n {
		a.buf = make([]int64, n)
	}
	return a.buf[:n]
}

func (a *arena) take32(n int) []int32 {
	if cap(a.buf32) < n {
		a.buf32 = make([]int32, n)
	}
	return a.buf32[:n]
}

func encodeJobs(jobs []joblog.Job) []byte {
	c := jobColumnsV3(jobs)
	w := &sectionWriter{}
	w.uvarint(uint64(c.Rows()))
	w.deltaInt64s(c.ID)
	w.dict(c.User)
	w.dict(c.Project)
	w.dict(c.Queue)
	w.deltaInt64s(c.Submit)
	w.deltaInt64s(c.Start)
	w.deltaInt64s(c.End)
	w.varints(c.Walltime)
	w.varints(c.Nodes)
	w.varints(c.Ranks)
	w.varints(c.NumTasks)
	w.varints(c.Exit)
	return w.buf
}

// decodeJobs decodes the jobs section into the scan.JobView, the only
// form a dataset keeps its jobs in; it builds no records. The stored
// dictionaries assign ids in first-appearance order — exactly the order
// core.BuildJobView's interning does — so the dict indexes and tables are
// the view's id columns and dictionaries verbatim. Every stored column
// but the walltimes and exit statuses decodes straight into its view
// column; those two, stored wider or narrower than their columns, pass
// through the arena, and a closing row pass widens the walltimes, checks
// and narrows the exit statuses, and derives the duration, core-second
// and family columns.
func decodeJobs(payload []byte, a *arena) (*scan.JobView, error) {
	r := &sectionReader{name: "jobs", b: payload}
	n := r.count("row")
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
	exit := a.take(n)
	wall := a.take32(n)

	r.deltasInto(v.ID)
	v.Users = r.dictTable()
	r.dictIndexes32Into(v.UserID, len(v.Users))
	v.Projects = r.dictTable()
	r.dictIndexes32Into(v.ProjectID, len(v.Projects))
	v.Queues = r.dictTable()
	r.dictIndexes32Into(v.QueueID, len(v.Queues))
	r.deltasInto(v.SubmitUnix)
	r.deltasInto(v.StartUnix)
	r.deltasInto(v.EndUnix)
	r.varints32Into(wall, 1<<31, "walltime")
	r.varints32Into(v.Nodes, 1<<31, "node count")
	r.varints32Into(v.RanksPerNode, 1<<31, "ranks-per-node")
	r.varints32Into(v.NumTasks, 1<<31, "task count")
	r.varintsInto(exit)
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := checkInt32s(r, exit, "exit status"); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		dur := v.EndUnix[i] - v.StartUnix[i]
		v.WalltimeSec[i] = int64(wall[i])
		v.DurSec[i] = dur
		v.CoreSec[i] = int64(v.Nodes[i]) * 16 * dur
		v.Exit[i] = int32(exit[i])
		v.Family[i] = joblog.FamilyCodeOf(int(exit[i]))
	}
	return v, nil
}

// checkInt32s fails unless every value fits an int32 column.
func checkInt32s(r *sectionReader, vals []int64, what string) error {
	for _, x := range vals {
		if x < math.MinInt32 || x > math.MaxInt32 {
			return r.errf("%s %d does not fit an int32", what, x)
		}
	}
	return nil
}

func encodeTasks(tasks []tasklog.Task) []byte {
	c := taskColumnsV3(tasks)
	w := &sectionWriter{}
	w.uvarint(uint64(c.Rows()))
	w.deltaInt64s(c.ID)
	w.deltaInt64s(c.JobID)
	w.varints(c.Block)
	w.deltaInt64s(c.Start)
	w.deltaInt64s(c.End)
	w.varints(c.Nodes)
	w.varints(c.Exit)
	return w.buf
}

// decodeTasks decodes the tasks section into the scan.TaskView, the
// only form a dataset keeps its tasks in; it builds no records. Ids, job
// ids, times and node counts decode straight into their view columns.
// The block codes and exit statuses pass through the arena: after the
// reader has checked every column, so a malformed column reports its own
// error first, the exit statuses are checked against the column width and
// each block code's geometry is validated as it is narrowed.
func decodeTasks(payload []byte, a *arena) (*scan.TaskView, error) {
	r := &sectionReader{name: "tasks", b: payload}
	n := r.count("row")
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
	exit := a.take(n)
	block := a.take32(n)

	r.deltasInto(v.ID)
	r.deltasInto(v.JobID)
	// Block codes pack two bytes (base midplane, extent), so 1<<16 bounds
	// every valid code; BlockFromCode still validates the geometry.
	r.varints32Into(block, 1<<16, "block code")
	r.deltasInto(v.StartUnix)
	r.deltasInto(v.EndUnix)
	r.varints32Into(v.Nodes, 1<<31, "node count")
	r.varintsInto(exit)
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := checkInt32s(r, exit, "exit status"); err != nil {
		return nil, err
	}

	// Block codes repeat heavily (few hundred distinct blocks), so validate
	// each distinct code once.
	lastCode := int32(-1)
	for i := 0; i < n; i++ {
		if code := block[i]; code != lastCode {
			if _, err := machine.BlockFromCode(uint32(code)); err != nil {
				return nil, r.errf("%v", err)
			}
			lastCode = code
		}
		v.Block[i] = uint16(block[i])
		v.Exit[i] = int32(exit[i])
	}
	return v, nil
}

func encodeEvents(events []raslog.Event) []byte {
	c := eventColumnsV3(events)
	w := &sectionWriter{}
	w.uvarint(uint64(c.Rows()))
	w.deltaInt64s(c.RecID)
	w.dict(c.MsgID)
	w.dict(c.Comp)
	w.dict(c.Cat)
	w.varints(c.Sev)
	w.deltaInt64s(c.Time)
	w.varints(c.Loc)
	w.varints(c.JobID)
	w.varints(c.Count)
	w.dict(c.Message)
	return w.buf
}

// decodeEvents decodes the events section into the scan.EventView, the
// only form a dataset keeps its events in; it builds no records. Every
// stored column but the severities decodes straight into its view column,
// the dictionary tables becoming the view's dictionaries: the stored
// indexes are the first-appearance codes core.BuildEventView assigns. A
// closing row pass narrows the severities and validates each location
// code, filling the dense midplane and rack ids from the decoded location.
func decodeEvents(payload []byte, a *arena) (*scan.EventView, error) {
	r := &sectionReader{name: "events", b: payload}
	n := r.count("row")
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
	sev := a.take32(n)

	r.deltasInto(v.RecID)
	v.MsgIDs = r.dictTable()
	r.dictIndexes32Into(v.MsgID, len(v.MsgIDs))
	v.Comps = r.dictTable()
	r.dictIndexes32Into(v.CompID, len(v.Comps))
	v.Cats = r.dictTable()
	r.dictIndexes32Into(v.CatID, len(v.Cats))
	r.varints32Into(sev, int64(raslog.Fatal)+1, "severity")
	for _, v := range sev {
		if v < int32(raslog.Info) {
			//lint:ignore hotalloc cold corrupt-input path; boxing happens only when the decode already failed
			r.fail("severity %d out of range", v)
			break
		}
	}
	r.deltasInto(v.TimeUnix)
	// Location codes use 19 significant bits (see machine.Location.Code);
	// LocationFromCode still rejects non-canonical codes inside the bound.
	r.varints32Into(v.LocCode, 1<<19, "location code")
	r.varintsInto(v.JobID)
	r.varints32Into(v.Count, 1<<31, "event count")
	v.Messages = r.dictTable()
	r.dictIndexes32Into(v.Msg, len(v.Messages))
	if err := r.done(); err != nil {
		return nil, err
	}

	// Location codes are high-cardinality (events land on any of 49k
	// nodes), so a decoded-code cache would miss more than it hits; the
	// bit-field decode is cheap enough to run per changed code.
	lastCode := int32(-1)
	lastMid, lastRack := int32(-1), int32(-1)
	for i := range sev {
		if code := v.LocCode[i]; code != lastCode {
			l, err := machine.LocationFromCode(uint32(code))
			if err != nil {
				return nil, r.errf("%v", err)
			}
			lastCode = code
			lastMid, lastRack = core.LocIDs(l)
		}
		v.Sev[i] = uint8(sev[i])
		v.MidplaneID[i] = lastMid
		v.RackID[i] = lastRack
	}
	return v, nil
}

func encodeIO(records []iolog.Record) []byte {
	c := ioColumnsV3(records)
	w := &sectionWriter{}
	w.uvarint(uint64(c.Rows()))
	w.deltaInt64s(c.JobID)
	w.rawInt64s(c.BytesRead)
	w.rawInt64s(c.BytesWritten)
	w.varints(c.FilesRead)
	w.varints(c.FilesWritten)
	w.varints(c.MetaOps)
	w.rawInt64s(c.IOTimeNanos)
	return w.buf
}

// decodeIO decodes the I/O section one column at a time, each column
// through one column of scratch straight into the records.
func decodeIO(payload []byte, a *arena) ([]iolog.Record, error) {
	r := &sectionReader{name: "io", b: payload}
	n := r.count("row")
	recs := make([]iolog.Record, n)
	col := a.take(n)

	r.deltasInto(col)
	for i := range recs {
		recs[i].JobID = col[i]
	}
	r.raw64sInto(col)
	for i := range recs {
		recs[i].BytesRead = col[i]
	}
	r.raw64sInto(col)
	for i := range recs {
		recs[i].BytesWritten = col[i]
	}
	r.varintsInto(col)
	for i := range recs {
		recs[i].FilesRead = int(col[i])
	}
	r.varintsInto(col)
	for i := range recs {
		recs[i].FilesWritten = int(col[i])
	}
	r.varintsInto(col)
	for i := range recs {
		recs[i].MetaOps = col[i]
	}
	r.raw64sInto(col)
	for i := range recs {
		recs[i].IOTime = time.Duration(col[i])
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return recs, nil
}

// encodeIndexes serializes the dataset's derived indexes: the severity
// views and per-job event lists are sorted integer streams, so they
// delta-encode tightly; map entries are written in ascending job-id order
// so the payload is deterministic. The total attributed-event count
// precedes the per-job lists so the decoder can carve every list out of a
// single backing allocation.
func encodeIndexes(snap indexSnapshotV3) []byte {
	w := &sectionWriter{}
	w.uvarint(uint64(len(snap.FatalIdx)))
	w.deltaInts(snap.FatalIdx)
	w.uvarint(uint64(len(snap.WarnIdx)))
	w.deltaInts(snap.WarnIdx)
	w.uvarint(uint64(snap.InfoN))
	total := 0
	for _, je := range snap.JobEvents {
		total += len(je.Idx)
	}
	w.uvarint(uint64(len(snap.JobEvents)))
	w.uvarint(uint64(total))
	prev := int64(0)
	for _, je := range snap.JobEvents {
		w.varint(je.JobID - prev)
		prev = je.JobID
		w.uvarint(uint64(len(je.Idx)))
		w.deltaInts(je.Idx)
	}
	w.varint(snap.Start.Unix())
	w.varint(snap.End.Unix())
	return w.buf
}
