package core

import (
	"reflect"
	"testing"

	"repro/internal/joblog"
)

// TestSnapshotRebuildEquivalence pins NewDatasetFromSnapshot to NewDataset:
// re-indexing the same logs from an exported snapshot must reproduce the
// dataset exactly, shared event-scan indexes included. The comparison uses
// a freshly built dataset, not the shared one: other tests populate the
// shared dataset's lazy caches (column views, interned filter keys), which
// a from-snapshot rebuild deliberately leaves empty.
func TestSnapshotRebuildEquivalence(t *testing.T) {
	_, c := dataset(t)
	d, err := NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewDatasetFromSnapshot(d.Jobs, d.Tasks, d.Events, d.IO, d.ExportIndexes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatal("snapshot-built dataset differs from scan-built dataset")
	}
}

func TestSnapshotRejectsMismatch(t *testing.T) {
	d, _ := dataset(t)
	snap := d.ExportIndexes()

	if _, err := NewDatasetFromSnapshot(nil, d.Tasks, d.Events, d.IO, snap); err == nil {
		t.Error("no jobs accepted")
	}

	// A snapshot that does not cover the stream must be rejected: here the
	// stream is truncated but the indexes still reference the full length.
	if _, err := NewDatasetFromSnapshot(d.Jobs, d.Tasks, d.Events[:len(d.Events)/2], d.IO, snap); err == nil {
		t.Error("snapshot/stream length mismatch accepted")
	}

	// Over-attributing per-job indexes must be rejected too.
	bad := snap
	bad.JobEvents = []JobEventIndex{{JobID: 1, Idx: make([]int, len(d.Events)+1)}}
	bad.InfoN = len(d.Events) - len(bad.FatalIdx) - len(bad.WarnIdx)
	if _, err := NewDatasetFromSnapshot(d.Jobs, d.Tasks, d.Events, d.IO, bad); err == nil {
		t.Error("over-attributed snapshot accepted")
	}

	// As must per-job index lists that are out of range or out of order.
	bad = snap
	bad.JobEvents = []JobEventIndex{{JobID: 1, Idx: []int{len(d.Events)}}}
	if _, err := NewDatasetFromSnapshot(d.Jobs, d.Tasks, d.Events, d.IO, bad); err == nil {
		t.Error("out-of-range event index accepted")
	}
	bad.JobEvents = []JobEventIndex{{JobID: 1, Idx: []int{1, 0}}}
	if _, err := NewDatasetFromSnapshot(d.Jobs, d.Tasks, d.Events, d.IO, bad); err == nil {
		t.Error("out-of-order event index accepted")
	}

	// Severity views must index events of their own severity, in range.
	bad = snap
	bad.FatalIdx = append(append([]int(nil), snap.FatalIdx[:len(snap.FatalIdx)-1]...), len(d.Events))
	if _, err := NewDatasetFromSnapshot(d.Jobs, d.Tasks, d.Events, d.IO, bad); err == nil {
		t.Error("out-of-range FATAL index accepted")
	}
	bad = snap
	bad.FatalIdx, bad.WarnIdx = snap.WarnIdx, snap.FatalIdx
	if _, err := NewDatasetFromSnapshot(d.Jobs, d.Tasks, d.Events, d.IO, bad); err == nil {
		t.Error("swapped severity views accepted")
	}

	// Duplicate job ids are still caught on the snapshot path.
	jobs := append(append([]joblog.Job(nil), d.Jobs...), d.Jobs[0])
	if _, err := NewDatasetFromSnapshot(jobs, d.Tasks, d.Events, d.IO, snap); err == nil {
		t.Error("duplicate job id accepted")
	}
}
