// Package pack implements the mirapack binary columnar corpus snapshot: a
// single versioned file holding the four Mira logs (job, task, RAS, I/O)
// column-major, plus a section of derived event indexes. Loading a
// snapshot is one file read and a varint sweep into the I/O records and
// the job, task and event column views (those three logs decode into
// their views only) — no CSV parsing, no string interning hash lookups,
// no view build — which is what makes repeated
// mirareport/mirafilter/calibrate invocations over a 2001-day corpus
// cheap. The dataset is built by core.NewDatasetFromViews, which derives
// the task index, the severity views and the observation window from the
// decoded columns.
//
// # Layout (version 3)
//
//	[8]byte  magic "MIRAPACK"
//	uint32le version (3)
//	uint32le section count
//	per section (24 bytes each):
//	    uint32le id, uint32le crc32(IEEE) of the payload,
//	    uint64le absolute offset, uint64le length
//	section payloads, in table order
//
// Sections: jobs (1), tasks (2), events (3), io (4), indexes (5). Each
// log payload starts with a uvarint row count followed by its columns in a
// fixed order. Low-cardinality string columns (user, project, queue,
// message id, component, category, message text) are dictionary-encoded;
// record ids and timestamps are delta+varint; wide numerics (I/O byte
// counters, durations) are raw little-endian; everything else is a zigzag
// varint. The indexes payload serializes core.IndexSnapshot: the fatal and
// warn views (count + delta varints each), the info count, then the
// per-job event index — job count, total attributed-event count, and per
// job a delta-encoded job id, its event count and delta-encoded event
// indexes — and finally the observation-window bounds as unix-second
// varints. Marshal writes it and a load requires it and verifies its
// checksum, but does not decode it: the constructor derives the same
// indexes from the columns, and `mirapack -verify` catches a stale
// section by re-encoding. Every section checksum is verified before
// decoding, each decoded value is checked against its column's bound, and
// the events must be in time order, so a truncated or corrupted snapshot
// fails loudly rather than yielding a partial dataset.
//
// DESIGN.md §10 specifies the format and its stability rules.
package pack

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/par"
	"repro/internal/scan"
)

// Format identity.
//
//mira:frozen
const (
	magic = "MIRAPACK"
	// Version is the current format version. Readers reject any other
	// version: the format promises compatibility only between identical
	// versions, and a version bump is the only sanctioned way to change
	// the layout (see DESIGN.md §10). Versions 2 and 3 write version 1's
	// bytes apart from this field; 2 marks the frozen Marshal's move to
	// event records rebuilt from the column view, 3 its move to job and
	// task records rebuilt from theirs.
	Version = 3
)

// LayoutHash records the sha256 over the printed form of every
// //mira:frozen declaration in this package — the section table shape,
// the section order, and the column encodings. The packfreeze analyzer
// (internal/lint) recomputes the hash on every lint run: editing any
// frozen declaration without bumping Version and re-recording the hash
// fails `miralint`, and versions 1 to 3 are additionally pinned inside
// the analyzer itself, so their layouts can never change at all.
const LayoutHash = "sha256:86ca266f2de5439ec147faeded20f0eb1e838623ef9566a9307bdba172e18933"

// SnapshotName is the conventional snapshot filename inside a corpus
// directory, next to the four CSVs.
const SnapshotName = "corpus.mirapack"

// Section ids.
//
//mira:frozen
const (
	secJobs uint32 = iota + 1
	secTasks
	secEvents
	secIO
	secIndexes
)

var sectionNames = map[uint32]string{
	secJobs:    "jobs",
	secTasks:   "tasks",
	secEvents:  "events",
	secIO:      "io",
	secIndexes: "indexes",
}

//mira:frozen
const (
	headerSize       = 8 + 4 + 4
	sectionEntrySize = 4 + 4 + 8 + 8
)

// Marshal serializes the dataset — logs and derived indexes — into a
// snapshot byte image. The section table it writes (ids, checksums,
// offsets) and the section order are part of the frozen layout.
//
//mira:frozen
func Marshal(d *core.Dataset) []byte {
	sections := []struct {
		id      uint32
		payload []byte
	}{
		{secJobs, encodeJobs(d.JobRecords())},
		{secTasks, encodeTasks(d.TaskRecords())},
		{secEvents, encodeEvents(d.EventRecords())},
		{secIO, encodeIO(d.IO)},
		{secIndexes, encodeIndexes(d.ExportIndexes())},
	}
	total := headerSize + len(sections)*sectionEntrySize
	offset := uint64(total)
	for _, s := range sections {
		total += len(s.payload)
	}
	out := make([]byte, 0, total)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(sections)))
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

// Write serializes the dataset to w.
func Write(w io.Writer, d *core.Dataset) error {
	if _, err := w.Write(Marshal(d)); err != nil {
		return fmt.Errorf("pack: write snapshot: %w", err)
	}
	return nil
}

// WriteFile writes the dataset snapshot to path.
func WriteFile(path string, d *core.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("pack: %w", err)
	}
	if err := Write(f, d); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("pack: close %s: %w", path, err)
	}
	return nil
}

// section is one verified, named payload.
type section struct {
	id      uint32
	payload []byte
}

// parseHeader validates magic, version and the section table, and verifies
// every section checksum. It returns sections in table order. Entries are
// checked in decodeOrder, unknown sections last, so of several corrupt
// sections the one named is the one whose decode error Unmarshal would
// report first.
func parseHeader(data []byte) ([]section, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("pack: file of %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("pack: bad magic %q (want %q): not a mirapack snapshot", data[:8], magic)
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version != Version {
		return nil, fmt.Errorf("pack: snapshot version %d, this reader supports only version %d — regenerate the snapshot", version, Version)
	}
	count := binary.LittleEndian.Uint32(data[12:])
	tableEnd := headerSize + int(count)*sectionEntrySize
	if count > 64 || tableEnd > len(data) {
		return nil, fmt.Errorf("pack: truncated snapshot: section table of %d entries does not fit in %d bytes", count, len(data))
	}
	entry := func(i int) []byte { return data[headerSize+i*sectionEntrySize:] }
	order := make([]int, count)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return decodeRank(binary.LittleEndian.Uint32(entry(order[a]))) < decodeRank(binary.LittleEndian.Uint32(entry(order[b])))
	})
	sections := make([]section, count)
	for _, i := range order {
		e := entry(i)
		id := binary.LittleEndian.Uint32(e)
		sum := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		name := sectionName(id)
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("pack: truncated snapshot: section %s [%d, +%d) exceeds file size %d", name, off, length, len(data))
		}
		payload := data[off : off+length]
		if got := crc32.ChecksumIEEE(payload); got != sum {
			return nil, fmt.Errorf("pack: section %s checksum mismatch (stored %08x, computed %08x): snapshot is corrupt", name, sum, got)
		}
		sections[i] = section{id: id, payload: payload}
	}
	return sections, nil
}

// decodeOrder is the order Unmarshal reports section errors in: events,
// the largest section, first, then the table order of the rest. Unmarshal
// decodes the first on one goroutine and the rest, in order, on another.
var decodeOrder = [...]uint32{secEvents, secJobs, secTasks, secIO, secIndexes}

// decodeRank is a section's position in decodeOrder; unknown sections
// rank last.
func decodeRank(id uint32) int {
	for i, d := range decodeOrder {
		if d == id {
			return i
		}
	}
	return len(decodeOrder)
}

func sectionName(id uint32) string {
	if n, ok := sectionNames[id]; ok {
		return n
	}
	return fmt.Sprintf("#%d", id)
}

// findSection returns the payload of the section with the given id.
func findSection(sections []section, id uint32) ([]byte, error) {
	for _, s := range sections {
		if s.id == id {
			return s.payload, nil
		}
	}
	return nil, fmt.Errorf("pack: snapshot has no %s section", sectionName(id))
}

// Unmarshal decodes a snapshot byte image into a fully indexed dataset.
//
// The events section, about two thirds of the decode, runs on one
// goroutine while the jobs, tasks and I/O sections run in that order on
// another, each goroutine with its own scratch arena; the indexes section
// is checked for presence there but not decoded. The error returned is
// that of the first failing section in decodeOrder, whichever goroutine
// finished first. core.NewDatasetFromViews then builds the dataset over
// the decoded I/O records and the job, task and event column views.
func Unmarshal(data []byte) (*core.Dataset, error) {
	sections, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	var ioRecs []iolog.Record
	var jv *scan.JobView
	var tv *scan.TaskView
	var ev *scan.EventView
	evArena, jobArena := &arena{}, &arena{}
	decoders := map[uint32]func(payload []byte) error{
		secEvents: func(p []byte) (err error) { ev, err = decodeEvents(p, evArena); return },
		secJobs:   func(p []byte) (err error) { jv, err = decodeJobs(p, jobArena); return },
		secTasks:  func(p []byte) (err error) { tv, err = decodeTasks(p, jobArena); return },
		secIO:     func(p []byte) (err error) { ioRecs, err = decodeIO(p, jobArena); return },
		// The indexes section must be present and its checksum is verified
		// with the others, but the constructor derives its contents from
		// the decoded columns.
		secIndexes: func([]byte) error { return nil },
	}
	parts := [2][]uint32{decodeOrder[:1], decodeOrder[1:]}
	var errs [2]error
	if err := par.ForEach(context.Background(), len(parts), len(parts), func(i int) error {
		errs[i] = decodeSections(sections, parts[i], decoders)
		return nil
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	d, err := core.NewDatasetFromViews(ioRecs, jv, tv, ev)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	return d, nil
}

// decodeSections runs the decoders of the given sections in order and
// stops at the first missing or failing section.
func decodeSections(sections []section, ids []uint32, decoders map[uint32]func(payload []byte) error) error {
	for _, id := range ids {
		payload, err := findSection(sections, id)
		if err != nil {
			return err
		}
		if err := decoders[id](payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFile loads a snapshot file into a fully indexed dataset: one read,
// one decode sweep, no CSV parse and no column-view build.
func ReadFile(path string) (*core.Dataset, error) {
	data, release, err := readSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	defer release()
	d, err := Unmarshal(data)
	if err != nil {
		return nil, fmt.Errorf("pack: %s: %w", path, err)
	}
	return d, nil
}

// UnmarshalEvents decodes only the RAS events section of a snapshot, into
// its column view — the streaming tools (mirafilter) need nothing else.
// core.EventRecordsOf and core.EventRecordsAt rebuild records from it.
func UnmarshalEvents(data []byte) (*scan.EventView, error) {
	sections, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	payload, err := findSection(sections, secEvents)
	if err != nil {
		return nil, err
	}
	return decodeEvents(payload, &arena{})
}

// ReadEventsFile loads only the RAS events from a snapshot file, as their
// column view.
func ReadEventsFile(path string) (*scan.EventView, error) {
	data, release, err := readSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	defer release()
	v, err := UnmarshalEvents(data)
	if err != nil {
		return nil, fmt.Errorf("pack: %s: %w", path, err)
	}
	return v, nil
}

// SectionInfo describes one section of an inspected snapshot.
type SectionInfo struct {
	Name  string
	Bytes int
	CRC   uint32
}

// Info is the verified header summary of a snapshot.
type Info struct {
	Version  uint32
	Sections []SectionInfo
}

// Inspect validates a snapshot's header, every section checksum and the
// presence of all five sections, and returns the layout summary, without
// decoding the columns.
func Inspect(data []byte) (*Info, error) {
	sections, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	for _, id := range []uint32{secJobs, secTasks, secEvents, secIO, secIndexes} {
		if _, err := findSection(sections, id); err != nil {
			return nil, err
		}
	}
	info := &Info{Version: Version}
	for _, s := range sections {
		info.Sections = append(info.Sections, SectionInfo{
			Name:  sectionName(s.id),
			Bytes: len(s.payload),
			CRC:   crc32.ChecksumIEEE(s.payload),
		})
	}
	return info, nil
}
