// Package pack implements the mirapack binary corpus snapshot: a single
// versioned file holding the four Mira logs (job, task, RAS, I/O). The
// file is the column store: the job, task and event sections hold the
// columns of scan.JobView, scan.TaskView and scan.EventView in their
// in-memory layout, so a load maps the file read-only and adopts each
// column as a slice over the mapping. Nothing is decoded or zeroed; one
// check pass per view checks every stored value, which is what makes
// repeated mirareport/mirad/calibrate invocations over a 2001-day corpus
// cheap.
//
// # Layout (version 4)
//
//	[8]byte  magic "MIRAPACK"
//	uint32le version (4)
//	uint32le section count
//	per section (24 bytes each):
//	    uint32le id, uint32le crc32(IEEE) of the payload,
//	    uint64le absolute offset, uint64le length
//	section payloads, in table order, each at an 8-aligned offset
//
// Sections: jobs (1), tasks (2), events (3), io (4). Each payload is a
// uint64le row count followed by the columns of its log's column table
// (columns.go) in table order. A column is its rows little-endian at the
// view column's width (int64, int32, uint16 or uint8); a dictionary is a
// uint64le entry count and per entry a uint64le length and the bytes.
// Every column and dictionary is padded with zero bytes to a multiple of
// 8, so every column starts 8-aligned and the writer's output is a
// function of the dataset alone. The derived columns (job duration,
// core-seconds and exit family, event midplane and rack) are stored too,
// so a load allocates no column, and core checks them against their
// derivation. I/O is seven int64 columns, rebuilt into records at load.
//
// # Validation
//
// What a job, task and event log may hold is core's to decide: a load
// hands the adopted views to core.NewDatasetFromViews, whose row checks
// are the ones every Dataset passes, however it was built. The pack adds
// only the format's checks: the header, every section checksum, exactly
// N rows per column, zero padding and no trailing bytes. A load fails
// with a "pack: …" error, never a panic or a partial dataset. A format
// error comes before any value error; each kind is reported for
// the first failing section in the order events, jobs, tasks, I/O, and a
// value error names its section and row, as in "pack: section events
// row 4: event count -1 out of range [0, 2^31)".
//
// DESIGN.md §10 specifies the format and its stability rules.
package pack

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

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
	// the layout (see DESIGN.md §10). Versions 1 to 3 were the varint
	// layout; 4 stores the view columns raw.
	Version = 4
)

// LayoutHash records the sha256 over the printed form of every
// //mira:frozen declaration in this package — the section table shape,
// the section order, and the column tables and encodings. The packfreeze
// analyzer (internal/lint) recomputes the hash on every lint run: editing
// any frozen declaration without bumping Version and re-recording the
// hash fails `miralint`, and versions 1 to 4 are additionally pinned
// inside the analyzer itself, so their layouts can never change at all.
const LayoutHash = "sha256:eb9b01354aff091880a96e38ea4ec14e2a134473c2980ec3a7a3279d581ff302"

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
)

var sectionNames = map[uint32]string{
	secJobs:   "jobs",
	secTasks:  "tasks",
	secEvents: "events",
	secIO:     "io",
}

//mira:frozen
const (
	headerSize       = 8 + 4 + 4
	sectionEntrySize = 4 + 4 + 8 + 8
)

// Marshal serializes the dataset into a snapshot byte image, straight
// from its column views and I/O records. The section table it writes
// (ids, checksums, offsets) and the section order are part of the frozen
// layout.
//
//mira:frozen
func Marshal(d *core.Dataset) []byte {
	jv, tv := d.JobView(), d.TaskView()
	ev := *d.EventView()
	ev.LocCode = storedLocCodes(ev.LocCode)
	iv := ioViewOf(d.IO)
	sections := [...]struct {
		id    uint32
		write func(w *writer)
	}{
		{secJobs, func(w *writer) { writeColumns(w, jv.N, jv, jobColumns[:]) }},
		{secTasks, func(w *writer) { writeColumns(w, tv.N, tv, taskColumns[:]) }},
		{secEvents, func(w *writer) { writeColumns(w, ev.N, &ev, eventColumns[:]) }},
		{secIO, func(w *writer) { writeColumns(w, len(d.IO), iv, ioColumns[:]) }},
	}
	w := &writer{buf: make([]byte, headerSize+len(sections)*sectionEntrySize)}
	copy(w.buf, magic)
	binary.LittleEndian.PutUint32(w.buf[8:], Version)
	binary.LittleEndian.PutUint32(w.buf[12:], uint32(len(sections)))
	for i, s := range sections {
		off := len(w.buf)
		s.write(w)
		payload := w.buf[off:]
		e := w.buf[headerSize+i*sectionEntrySize:]
		binary.LittleEndian.PutUint32(e, s.id)
		binary.LittleEndian.PutUint32(e[4:], crc32.ChecksumIEEE(payload))
		binary.LittleEndian.PutUint64(e[8:], uint64(off))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(payload)))
	}
	return w.buf
}

// Write serializes the dataset to w.
func Write(w io.Writer, d *core.Dataset) error {
	if _, err := w.Write(Marshal(d)); err != nil {
		return fmt.Errorf("pack: write snapshot: %w", err)
	}
	return nil
}

// WriteFile writes the dataset snapshot to path. It writes a temporary
// file in the same directory and renames it over path, never truncating
// the file in place: a process that has the old snapshot mapped keeps
// reading the old file's bytes, where a truncation would fault it.
func WriteFile(path string, d *core.Dataset) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("pack: %w", err)
	}
	tmp := f.Name()
	err = Write(f, d)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("pack: close %s: %w", tmp, cerr)
	}
	if err == nil {
		if err = os.Chmod(tmp, 0o644); err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			err = fmt.Errorf("pack: %w", err)
		}
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// section is one table entry's id, stored checksum and payload.
type section struct {
	id      uint32
	crc     uint32
	payload []byte
}

// parseHeader validates magic, version and the section table, and
// returns the sections in table order with their payloads bounds-checked
// but not yet checksummed: each loader goroutine verifies the checksums
// of the sections it loads (findSection).
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
	sections := make([]section, count)
	for i := range sections {
		e := data[headerSize+i*sectionEntrySize:]
		id := binary.LittleEndian.Uint32(e)
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("pack: truncated snapshot: section %s [%d, +%d) exceeds file size %d", sectionName(id), off, length, len(data))
		}
		sections[i] = section{id: id, crc: binary.LittleEndian.Uint32(e[4:]), payload: data[off : off+length]}
	}
	return sections, nil
}

// verify checks the section's payload against its stored checksum.
func (s section) verify() error {
	if got := crc32.ChecksumIEEE(s.payload); got != s.crc {
		return fmt.Errorf("pack: section %s checksum mismatch (stored %08x, computed %08x): snapshot is corrupt", sectionName(s.id), s.crc, got)
	}
	return nil
}

// sectionOf returns the first section with the given id.
func sectionOf(sections []section, id uint32) (section, error) {
	for _, s := range sections {
		if s.id == id {
			return s, nil
		}
	}
	return section{}, fmt.Errorf("pack: snapshot has no %s section", sectionName(id))
}

// findSection returns the checksum-verified payload of the first section
// with the given id.
func findSection(sections []section, id uint32) ([]byte, error) {
	s, err := sectionOf(sections, id)
	if err == nil {
		err = s.verify()
	}
	if err != nil {
		return nil, err
	}
	return s.payload, nil
}

func sectionName(id uint32) string {
	if n, ok := sectionNames[id]; ok {
		return n
	}
	return fmt.Sprintf("#%d", id)
}

// Unmarshal loads a snapshot byte image into a fully indexed dataset
// whose job, task and event columns are slices over data: data must not
// change while the dataset is in use. An image that is not 8-aligned (or
// a big-endian host) gets its sections copied into aligned buffers
// instead, with the same result.
//
// The load does the format work and leaves every value to
// core.NewDatasetFromViews. Two goroutines of about equal work verify the
// checksums and adopt the columns: one of the events and tasks sections,
// the other of the jobs and I/O sections and any section the format does
// not define (its checksum only). The views they adopt go to
// core.NewDatasetFromViews, which checks and indexes them on two
// goroutines again. A format error comes before any value error, and
// each kind is reported for the first failing section in the order
// events, jobs, tasks, I/O, whichever goroutine finished first.
func Unmarshal(data []byte) (*core.Dataset, error) {
	sections, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	var jv scan.JobView
	var tv scan.TaskView
	var ev scan.EventView
	var ioRecs []iolog.Record
	// errs holds each section's error in the order events, jobs, tasks,
	// I/O, undefined sections. Each goroutine takes its sections in that
	// order and stops at its first error, so the first error in errs is
	// the first failing section whichever goroutine finished first.
	var errs [5]error
	if err := par.ForEach(context.Background(), 2, 2, func(i int) error {
		if i == 0 {
			if ev.N, errs[0] = adoptSection(sections, secEvents, &ev, eventColumns[:]); errs[0] == nil {
				tv.N, errs[2] = adoptSection(sections, secTasks, &tv, taskColumns[:])
			}
			return nil
		}
		if jv.N, errs[1] = adoptSection(sections, secJobs, &jv, jobColumns[:]); errs[1] == nil {
			if ioRecs, errs[3] = loadIO(sections); errs[3] == nil {
				errs[4] = verifyUndefined(sections)
			}
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
	d, err := core.NewDatasetFromViews(ioRecs, &jv, &tv, &ev)
	if err != nil {
		var ve *core.ViewError
		switch {
		case !errors.As(err, &ve):
			return nil, fmt.Errorf("pack: %w", err)
		case ve.Row < 0:
			return nil, fmt.Errorf("pack: section %s: %w", ve.Log, err)
		default:
			return nil, fmt.Errorf("pack: section %s row %d: %w", ve.Log, ve.Row, ve.Err)
		}
	}
	return d, nil
}

// verifyUndefined verifies the checksums of the sections of ids the
// format does not define, whose payloads a load otherwise ignores.
func verifyUndefined(sections []section) error {
	for _, s := range sections {
		if _, known := sectionNames[s.id]; !known {
			if err := s.verify(); err != nil {
				return err
			}
		}
	}
	return nil
}

// mappedBytes is the size of the snapshot mappings not yet retired.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of snapshot files the process has mapped
// and not yet retired: the columns of the pack-loaded datasets and event
// views still in use, which the Go heap does not count. It is 0 when no
// snapshot was loaded.
func MappedBytes() int64 { return mappedBytes.Load() }

// ReadFile loads a snapshot file into a fully indexed dataset. The file
// is mapped read-only and the job, task and event columns are slices
// over the mapping; the dataset's event view owns the mapping, which is
// retired (its pages released, the address range kept) once that view is
// garbage. Replace a snapshot in use with WriteFile's rename, never by
// truncating it. An error names the path once behind its "pack: "
// prefix.
func ReadFile(path string) (*core.Dataset, error) {
	m, err := mapSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	d, err := Unmarshal(m.data)
	if err != nil {
		m.release()
		return nil, fmt.Errorf("pack: %s: %s", path, strings.TrimPrefix(err.Error(), "pack: "))
	}
	m.ownBy(d.EventView())
	return d, nil
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
// presence of all four sections, and returns the layout summary, without
// validating the columns.
func Inspect(data []byte) (*Info, error) {
	sections, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	info := &Info{Version: Version}
	for _, s := range sections {
		if err := s.verify(); err != nil {
			return nil, err
		}
		info.Sections = append(info.Sections, SectionInfo{Name: sectionName(s.id), Bytes: len(s.payload), CRC: s.crc})
	}
	for _, id := range [...]uint32{secEvents, secJobs, secTasks, secIO} {
		if _, err := sectionOf(sections, id); err != nil {
			return nil, err
		}
	}
	return info, nil
}
