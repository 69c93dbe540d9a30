package core

import (
	"sort"
	"time"
)

// JobEventIndex lists the events attributed to one job.
type JobEventIndex struct {
	JobID int64
	Idx   []int // event rows, in time order
}

// IndexSnapshot is the serializable form of the indexes a Dataset derives
// from its event stream: the severity-partitioned views and the
// observation-window bounds, plus the per-job event lists. The version-1
// binary corpus snapshot (internal/pack) writes it as its indexes section;
// a load verifies that section's checksum but does not decode it, since
// the constructor derives the same indexes from the decoded columns
// (`mirapack -verify` catches a stale section by re-encoding).
//
// The slices are shared with the Dataset that exported them; treat a
// snapshot as read-only.
type IndexSnapshot struct {
	FatalIdx   []int           // indices of FATAL events, in time order
	WarnIdx    []int           // indices of WARN events, in time order
	InfoN      int             // events that are neither FATAL nor WARN
	JobEvents  []JobEventIndex // per-job event indices, ascending job id
	Start, End time.Time       // observation-window bounds
}

// ExportIndexes returns the dataset's derived indexes for the pack's
// indexes section.
// No analysis reads the per-job event lists, so the Dataset keeps none:
// they are gathered from the event view's JobID column here, in
// ascending job id, each list in time order.
func (d *Dataset) ExportIndexes() IndexSnapshot {
	jobIDs := d.EventView().JobID
	var attributed []int
	for i, id := range jobIDs {
		if id != 0 {
			attributed = append(attributed, i)
		}
	}
	sort.SliceStable(attributed, func(a, b int) bool { return jobIDs[attributed[a]] < jobIDs[attributed[b]] })
	var jobEvents []JobEventIndex
	for k := 0; k < len(attributed); {
		id, j := jobIDs[attributed[k]], k+1
		for j < len(attributed) && jobIDs[attributed[j]] == id {
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
