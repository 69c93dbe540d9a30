package pack

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// Version 3 is the varint layout version 4 replaced: delta+varint ids and
// times, zigzag varints, first-appearance dictionaries and an indexes
// section. Its codec survives only here, byte for byte as it shipped, as
// the oracle of the version 4 loader: a dataset written in both versions
// must load to the same views. Versions 3 and 4 share the header and the
// section ids 1 to 4; version 3 adds the indexes section.

const (
	versionV3    = 3
	secIndexesV3 = 5
)

// jobEventsV3 lists the events attributed to one job.
type jobEventsV3 struct {
	JobID int64
	Idx   []int // event rows, in time order
}

// indexSnapshotV3 is the indexes section of version 3: the severity
// views, the per-job event lists and the observation window.
type indexSnapshotV3 struct {
	FatalIdx   []int
	WarnIdx    []int
	InfoN      int
	JobEvents  []jobEventsV3 // ascending job id
	Start, End time.Time
}

// exportIndexesV3 gathers the dataset's indexes section: the severity
// views come from the event view's severity column, and the per-job
// event lists come from the event view's JobID column, in ascending job
// id, each list in time order, orphan job ids included.
func exportIndexesV3(d *core.Dataset) indexSnapshotV3 {
	jobIDs := d.EventView().JobID
	var attributed []int
	for i, id := range jobIDs {
		if id != 0 {
			attributed = append(attributed, i)
		}
	}
	sort.SliceStable(attributed, func(a, b int) bool { return jobIDs[attributed[a]] < jobIDs[attributed[b]] })
	var jobEvents []jobEventsV3
	for k := 0; k < len(attributed); {
		id, j := jobIDs[attributed[k]], k+1
		for j < len(attributed) && jobIDs[attributed[j]] == id {
			j++
		}
		jobEvents = append(jobEvents, jobEventsV3{JobID: id, Idx: attributed[k:j:j]})
		k = j
	}
	x := indexSnapshotV3{JobEvents: jobEvents}
	for i, sev := range d.EventView().Sev {
		switch raslog.Severity(sev) {
		case raslog.Fatal:
			x.FatalIdx = append(x.FatalIdx, i)
		case raslog.Warn:
			x.WarnIdx = append(x.WarnIdx, i)
		default:
			x.InfoN++
		}
	}
	x.Start, x.End = d.Span()
	return x
}

// marshalV3 writes the dataset as a version 3 image, from records
// rebuilt from its views, as the version 3 Marshal did.
func marshalV3(d *core.Dataset) []byte {
	sections := []struct {
		id      uint32
		payload []byte
	}{
		{secJobs, encodeJobs(d.JobRecords())},
		{secTasks, encodeTasks(d.TaskRecords())},
		{secEvents, encodeEvents(d.EventRecords())},
		{secIO, encodeIO(d.IO)},
		{secIndexesV3, encodeIndexes(exportIndexesV3(d))},
	}
	out := append([]byte(nil), magic...)
	out = binary.LittleEndian.AppendUint32(out, versionV3)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
	offset := uint64(headerSize + len(sections)*sectionEntrySize)
	for _, s := range sections {
		out = binary.LittleEndian.AppendUint32(out, s.id)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.payload))
		out = binary.LittleEndian.AppendUint64(out, offset)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		offset += uint64(len(s.payload))
	}
	for _, s := range sections {
		out = append(out, s.payload...)
	}
	return out
}

// unmarshalV3 decodes a version 3 image into a dataset: every checksum
// verified, the indexes section required but not decoded, the sections
// decoded into the views in the order events, jobs, tasks, I/O, as the
// version 3 Unmarshal reported their errors.
func unmarshalV3(data []byte) (*core.Dataset, error) {
	if len(data) < headerSize || string(data[:8]) != magic {
		return nil, fmt.Errorf("pack: not a mirapack snapshot")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != versionV3 {
		return nil, fmt.Errorf("pack: snapshot version %d, want %d", v, versionV3)
	}
	count := int(binary.LittleEndian.Uint32(data[12:]))
	if count > 64 || headerSize+count*sectionEntrySize > len(data) {
		return nil, fmt.Errorf("pack: truncated snapshot")
	}
	payloads := map[uint32][]byte{}
	for i := 0; i < count; i++ {
		e := data[headerSize+i*sectionEntrySize:]
		id, sum := binary.LittleEndian.Uint32(e), binary.LittleEndian.Uint32(e[4:])
		off, n := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
		if off > uint64(len(data)) || n > uint64(len(data))-off {
			return nil, fmt.Errorf("pack: truncated snapshot: section #%d exceeds file size", id)
		}
		p := data[off : off+n]
		if crc32.ChecksumIEEE(p) != sum {
			return nil, fmt.Errorf("pack: section #%d checksum mismatch", id)
		}
		if _, dup := payloads[id]; !dup {
			payloads[id] = p
		}
	}
	for _, id := range []uint32{secEvents, secJobs, secTasks, secIO, secIndexesV3} {
		if _, ok := payloads[id]; !ok {
			return nil, fmt.Errorf("pack: snapshot has no section #%d", id)
		}
	}
	ev, err := decodeEvents(payloads[secEvents], &arena{})
	if err != nil {
		return nil, err
	}
	var jv *scan.JobView
	var tv *scan.TaskView
	var ioRecs []iolog.Record
	a := &arena{}
	if jv, err = decodeJobs(payloads[secJobs], a); err != nil {
		return nil, err
	}
	if tv, err = decodeTasks(payloads[secTasks], a); err != nil {
		return nil, err
	}
	if ioRecs, err = decodeIO(payloads[secIO], a); err != nil {
		return nil, err
	}
	d, err := core.NewDatasetFromViews(ioRecs, jv, tv, ev)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	return d, nil
}
