package core

import (
	"fmt"
	"time"

	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/tasklog"
)

// JobEventIndex lists the events attributed to one job.
type JobEventIndex struct {
	JobID int64
	Idx   []int // indices into Events, in time order
}

// IndexSnapshot is the serializable form of the derived indexes NewDataset
// builds by scanning the event stream: the severity-partitioned views, the
// per-job event index and the observation-window bounds. The binary corpus
// snapshot (internal/pack) persists it so loading a pack file skips the
// whole event scan.
//
// The slices are shared with the Dataset that exported them (or that a
// load will adopt); treat a snapshot as read-only.
type IndexSnapshot struct {
	FatalIdx   []int           // indices of FATAL events, in time order
	WarnIdx    []int           // indices of WARN events, in time order
	InfoN      int             // events that are neither FATAL nor WARN
	JobEvents  []JobEventIndex // per-job event indices, ascending job id
	Start, End time.Time       // observation-window bounds
}

// ExportIndexes returns the dataset's derived indexes for serialization.
func (d *Dataset) ExportIndexes() IndexSnapshot {
	var jobEvents []JobEventIndex
	for _, p := range d.byID { // ascending job id
		if idx := d.eventsOf[p]; len(idx) > 0 {
			jobEvents = append(jobEvents, JobEventIndex{JobID: d.Jobs[p].ID, Idx: idx})
		}
	}
	// Orphan attributions (ids with no matching job) are rare; merge them in
	// and restore the ascending order.
	if len(d.orphanEvents) > 0 {
		for id, idx := range d.orphanEvents {
			jobEvents = append(jobEvents, JobEventIndex{JobID: id, Idx: idx})
		}
		sortJobEvents(jobEvents)
	}
	return IndexSnapshot{
		FatalIdx:  d.fatalIdx,
		WarnIdx:   d.warnIdx,
		InfoN:     d.infoN,
		JobEvents: jobEvents,
		Start:     d.start,
		End:       d.end,
	}
}

// NewDatasetFromSnapshot indexes the logs like NewDataset but adopts the
// prebuilt event indexes instead of scanning the event stream. Events must
// already be in time order (the order ExportIndexes saw); the snapshot is
// cross-checked against the stream so a mismatched or stale snapshot fails
// loudly instead of yielding a subtly wrong dataset.
func NewDatasetFromSnapshot(jobs []joblog.Job, tasks []tasklog.Task, events []raslog.Event, ioRecs []iolog.Record, snap IndexSnapshot) (*Dataset, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: dataset has no jobs")
	}
	if got := len(snap.FatalIdx) + len(snap.WarnIdx) + snap.InfoN; got != len(events) {
		return nil, fmt.Errorf("core: index snapshot covers %d events, stream has %d", got, len(events))
	}
	// The severity views index Events directly wherever FATAL or WARN
	// events are read, so each must be ascending, in range and of its
	// severity. Given the count check above, that also makes InfoN ≥ 0.
	for _, view := range []struct {
		idx []int
		sev raslog.Severity
	}{{snap.FatalIdx, raslog.Fatal}, {snap.WarnIdx, raslog.Warn}} {
		last := -1
		for _, v := range view.idx {
			if v <= last || v >= len(events) || events[v].Sev != view.sev {
				return nil, fmt.Errorf("core: index snapshot: %s index %d out of order, out of range or of another severity", view.sev, v)
			}
			last = v
		}
	}
	d := &Dataset{
		Jobs:     jobs,
		Tasks:    tasks,
		Events:   events,
		IO:       ioRecs,
		fatalIdx: snap.FatalIdx,
		warnIdx:  snap.WarnIdx,
		infoN:    snap.InfoN,
		start:    snap.Start,
		end:      snap.End,
	}
	if err := d.buildJobIndex(); err != nil {
		return nil, err
	}
	d.buildPerJob()
	d.eventsOf = make([][]int, len(jobs))
	attributed := 0
	cur := jobCursor{d: d}
	for _, je := range snap.JobEvents {
		attributed += len(je.Idx)
		if attributed > len(events) {
			return nil, fmt.Errorf("core: index snapshot attributes %d events, stream has %d", attributed, len(events))
		}
		last := -1
		for _, v := range je.Idx {
			if v <= last || v >= len(events) {
				return nil, fmt.Errorf("core: index snapshot: event index %d for job %d out of order or range", v, je.JobID)
			}
			last = v
		}
		if p, ok := cur.pos(je.JobID); ok {
			d.eventsOf[p] = je.Idx
		} else {
			if d.orphanEvents == nil {
				d.orphanEvents = map[int64][]int{}
			}
			d.orphanEvents[je.JobID] = je.Idx
		}
	}
	return d, nil
}

func sortJobEvents(jes []JobEventIndex) {
	// Insertion sort: called only on the export path, on a slice that is
	// already sorted except for the appended orphan tail.
	for i := 1; i < len(jes); i++ {
		for j := i; j > 0 && jes[j].JobID < jes[j-1].JobID; j-- {
			jes[j], jes[j-1] = jes[j-1], jes[j]
		}
	}
}
