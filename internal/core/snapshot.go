package core

import (
	"fmt"
	"sort"
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
// builds by scanning the event stream: the severity-partitioned views and
// the observation-window bounds, plus the per-job event lists the binary
// corpus snapshot (internal/pack) format carries. The pack persists it so
// loading a pack file skips the whole event scan.
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
// No analysis reads the per-job event lists, so the Dataset keeps none:
// they are gathered from Events here, in ascending job id, each list in
// time order.
func (d *Dataset) ExportIndexes() IndexSnapshot {
	var attributed []int
	for i := range d.Events {
		if d.Events[i].JobID != 0 {
			attributed = append(attributed, i)
		}
	}
	sort.SliceStable(attributed, func(a, b int) bool { return d.Events[attributed[a]].JobID < d.Events[attributed[b]].JobID })
	var jobEvents []JobEventIndex
	for k := 0; k < len(attributed); {
		id, j := d.Events[attributed[k]].JobID, k+1
		for j < len(attributed) && d.Events[attributed[j]].JobID == id {
			j++
		}
		jobEvents = append(jobEvents, JobEventIndex{JobID: id, Idx: attributed[k:j:j]})
		k = j
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
	// The per-job event lists are not kept (ExportIndexes rebuilds them from
	// Events), but a pack that carries malformed ones is still rejected.
	attributed := 0
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
	}
	return d, nil
}
