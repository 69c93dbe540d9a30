package pack

import (
	"encoding/binary"
	"fmt"
	"time"
	"unsafe"

	"repro/internal/iolog"
	"repro/internal/machine"
	"repro/internal/scan"
)

// column is one stored column of a view V: the name errors call it by and
// the view field it is written from and adopted into. field returns a
// pointer to that field: *[]int64, *[]int32, *[]uint16 or *[]uint8 for a
// column of N rows, *[]string for a dictionary. Marshal and the loaders
// both iterate a view's table, so each column is named once and the table
// order is the section layout.
type column[V any] struct {
	name  string
	field func(*V) any
}

// The column tables, one per view: their order is the layout of each
// section, part of the frozen format (DESIGN.md §10).
//
//mira:frozen
var (
	jobColumns = [...]column[scan.JobView]{
		{"id", func(v *scan.JobView) any { return &v.ID }},
		{"users", func(v *scan.JobView) any { return &v.Users }},
		{"user", func(v *scan.JobView) any { return &v.UserID }},
		{"projects", func(v *scan.JobView) any { return &v.Projects }},
		{"project", func(v *scan.JobView) any { return &v.ProjectID }},
		{"queues", func(v *scan.JobView) any { return &v.Queues }},
		{"queue", func(v *scan.JobView) any { return &v.QueueID }},
		{"submit", func(v *scan.JobView) any { return &v.SubmitUnix }},
		{"start", func(v *scan.JobView) any { return &v.StartUnix }},
		{"end", func(v *scan.JobView) any { return &v.EndUnix }},
		{"walltime", func(v *scan.JobView) any { return &v.WalltimeSec }},
		{"node count", func(v *scan.JobView) any { return &v.Nodes }},
		{"ranks-per-node", func(v *scan.JobView) any { return &v.RanksPerNode }},
		{"task count", func(v *scan.JobView) any { return &v.NumTasks }},
		{"exit status", func(v *scan.JobView) any { return &v.Exit }},
		{"duration", func(v *scan.JobView) any { return &v.DurSec }},
		{"core seconds", func(v *scan.JobView) any { return &v.CoreSec }},
		{"family", func(v *scan.JobView) any { return &v.Family }},
	}
	taskColumns = [...]column[scan.TaskView]{
		{"id", func(v *scan.TaskView) any { return &v.ID }},
		{"job id", func(v *scan.TaskView) any { return &v.JobID }},
		{"block code", func(v *scan.TaskView) any { return &v.Block }},
		{"start", func(v *scan.TaskView) any { return &v.StartUnix }},
		{"end", func(v *scan.TaskView) any { return &v.EndUnix }},
		{"node count", func(v *scan.TaskView) any { return &v.Nodes }},
		{"exit status", func(v *scan.TaskView) any { return &v.Exit }},
	}
	eventColumns = [...]column[scan.EventView]{
		{"record id", func(v *scan.EventView) any { return &v.RecID }},
		{"message ids", func(v *scan.EventView) any { return &v.MsgIDs }},
		{"message id", func(v *scan.EventView) any { return &v.MsgID }},
		{"components", func(v *scan.EventView) any { return &v.Comps }},
		{"component", func(v *scan.EventView) any { return &v.CompID }},
		{"categories", func(v *scan.EventView) any { return &v.Cats }},
		{"category", func(v *scan.EventView) any { return &v.CatID }},
		{"severity", func(v *scan.EventView) any { return &v.Sev }},
		{"time", func(v *scan.EventView) any { return &v.TimeUnix }},
		{"location code", func(v *scan.EventView) any { return &v.LocCode }},
		{"midplane", func(v *scan.EventView) any { return &v.MidplaneID }},
		{"rack", func(v *scan.EventView) any { return &v.RackID }},
		{"job id", func(v *scan.EventView) any { return &v.JobID }},
		{"event count", func(v *scan.EventView) any { return &v.Count }},
		{"messages", func(v *scan.EventView) any { return &v.Messages }},
		{"message", func(v *scan.EventView) any { return &v.Msg }},
	}
	ioColumns = [...]column[ioView]{
		{"job id", func(v *ioView) any { return &v.JobID }},
		{"bytes read", func(v *ioView) any { return &v.BytesRead }},
		{"bytes written", func(v *ioView) any { return &v.BytesWritten }},
		{"files read", func(v *ioView) any { return &v.FilesRead }},
		{"files written", func(v *ioView) any { return &v.FilesWritten }},
		{"metadata ops", func(v *ioView) any { return &v.MetaOps }},
		{"io time", func(v *ioView) any { return &v.IOTimeNanos }},
	}
)

// ioView is the I/O log as the snapshot stores it: one int64 column per
// iolog.Record field, the I/O time in nanoseconds at the CSV codec's
// precision (iolog.CSVGranular), so a snapshot agrees exactly with the
// CSV file beside it. A dataset keeps its I/O as records.
//
//mira:frozen
type ioView struct {
	JobID, BytesRead, BytesWritten, FilesRead, FilesWritten, MetaOps, IOTimeNanos []int64
}

// ioViewOf decomposes I/O records into their stored columns.
//
//mira:frozen
func ioViewOf(records []iolog.Record) *ioView {
	n := len(records)
	v := &ioView{JobID: make([]int64, n), BytesRead: make([]int64, n), BytesWritten: make([]int64, n),
		FilesRead: make([]int64, n), FilesWritten: make([]int64, n), MetaOps: make([]int64, n), IOTimeNanos: make([]int64, n)}
	for i := range records {
		r := &records[i]
		v.JobID[i], v.BytesRead[i], v.BytesWritten[i] = r.JobID, r.BytesRead, r.BytesWritten
		v.FilesRead[i], v.FilesWritten[i], v.MetaOps[i] = int64(r.FilesRead), int64(r.FilesWritten), r.MetaOps
		v.IOTimeNanos[i] = int64(iolog.CSVGranular(r.IOTime))
	}
	return v
}

// storedLocCodes returns the location codes a snapshot stores: the
// view's, except that the zero Location's view code 0 is stored as the
// system's code, which machine.Location.Code folds it into (versions 1
// to 3 stored Code values too). The view is copied only if it holds a 0.
//
//mira:frozen
func storedLocCodes(codes []int32) []int32 {
	for i, c := range codes {
		if c == 0 {
			out := append([]int32(nil), codes...)
			sys := int32(machine.System().Code())
			for j := i; j < len(out); j++ {
				if out[j] == 0 {
					out[j] = sys
				}
			}
			return out
		}
	}
	return codes
}

// writer builds a snapshot image: every value little-endian at its
// column's width, every column and dictionary padded with zeros to a
// multiple of 8 bytes.
//
//mira:frozen
type writer struct {
	buf []byte
}

//mira:frozen
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

//mira:frozen
func (w *writer) pad() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

// writeColumns writes one section: the row count, then every column of
// the table in order.
//
//mira:frozen
func writeColumns[V any](w *writer, rows int, v *V, cols []column[V]) {
	w.u64(uint64(rows))
	for _, c := range cols {
		switch p := c.field(v).(type) {
		case *[]int64:
			for _, x := range *p {
				w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(x))
			}
		case *[]int32:
			for _, x := range *p {
				w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(x))
			}
		case *[]uint16:
			for _, x := range *p {
				w.buf = binary.LittleEndian.AppendUint16(w.buf, x)
			}
		case *[]uint8:
			w.buf = append(w.buf, *p...)
		case *[]string:
			w.u64(uint64(len(*p)))
			for _, s := range *p {
				w.u64(uint64(len(s)))
				w.buf = append(w.buf, s...)
			}
		}
		w.pad()
	}
}

// hostLittleEndian reports whether the host stores integers
// little-endian, the snapshot's byte order, so columns can be adopted.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aligned returns b if it starts on an 8-byte boundary, and otherwise a
// copy of b that does: columns are adopted in place only from aligned
// payloads, and an unaligned image (a byte slice at an odd offset) loads
// from the copy with the same result.
func aligned(b []byte) []byte {
	if len(b) == 0 || uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0 {
		return b
	}
	buf := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(buf))), len(b))
	copy(out, b)
	return out
}

// reader adopts the columns of one checksum-verified, aligned section
// payload in table order. Every read is bounds-checked against the
// payload, so a malformed payload that passed its checksum returns an
// error instead of panicking or over-allocating.
type reader struct {
	name string
	b    []byte
	off  int
}

func (r *reader) errf(format string, args ...any) error {
	return fmt.Errorf("pack: section %s at byte %d: %s", r.name, r.off, fmt.Sprintf(format, args...))
}

// u64 reads one 8-byte value.
func (r *reader) u64(what string) (uint64, error) {
	if len(r.b)-r.off < 8 {
		return 0, r.errf("%s needs 8 bytes, %d remain", what, len(r.b)-r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// skipPad steps over the zero padding that ends a column of n bytes.
func (r *reader) skipPad(name string) error {
	end := (r.off + 7) &^ 7
	if end > len(r.b) {
		return r.errf("column %s: padding runs past the section", name)
	}
	for _, c := range r.b[r.off:end] {
		if c != 0 {
			return r.errf("column %s: nonzero padding", name)
		}
	}
	r.off = end
	return nil
}

// adopt returns the next column, of n values of T, as a slice over the
// payload (a copy on a big-endian host), with cap == len.
func adopt[T int64 | int32 | uint16 | uint8](r *reader, n int, name string) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if rem := len(r.b) - r.off; n > rem/size {
		return nil, r.errf("column %s of %d rows needs %d bytes, %d remain", name, n, n*size, rem)
	}
	raw := r.b[r.off : r.off+n*size]
	r.off += n * size
	if err := r.skipPad(name); err != nil {
		return nil, err
	}
	if n == 0 {
		return []T{}, nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(raw))), n), nil
	}
	out := make([]T, n)
	for i := range out {
		switch size {
		case 8:
			out[i] = T(binary.LittleEndian.Uint64(raw[8*i:]))
		case 4:
			out[i] = T(binary.LittleEndian.Uint32(raw[4*i:]))
		case 2:
			out[i] = T(binary.LittleEndian.Uint16(raw[2*i:]))
		default:
			out[i] = T(raw[i])
		}
	}
	return out, nil
}

// dict reads a dictionary into heap strings: dictionaries are small, and
// a string over the mapping would outlive it in any map key it became.
// An empty dictionary reads as nil, as a view built from records has it.
func (r *reader) dict(name string) ([]string, error) {
	n, err := r.u64(name + " size")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)-r.off)/8 {
		return nil, r.errf("dictionary %s of %d entries exceeds the remaining %d bytes", name, n, len(r.b)-r.off)
	}
	var entries []string
	if n > 0 {
		entries = make([]string, n)
	}
	for i := range entries {
		size, err := r.u64(name + " entry length")
		if err != nil {
			return nil, err
		}
		if size > uint64(len(r.b)-r.off) {
			return nil, r.errf("dictionary %s entry of %d bytes exceeds the remaining %d", name, size, len(r.b)-r.off)
		}
		entries[i] = string(r.b[r.off : r.off+int(size)])
		r.off += int(size)
	}
	return entries, r.skipPad(name)
}

// adoptColumns reads the row count and adopts every column of the table
// into v, and requires the payload to end with the last column. It
// returns the row count.
func adoptColumns[V any](r *reader, v *V, cols []column[V]) (int, error) {
	rows, err := r.u64("row count")
	if err != nil {
		return 0, err
	}
	if rows > uint64(len(r.b)) {
		return 0, r.errf("row count %d exceeds the %d-byte section", rows, len(r.b))
	}
	n := int(rows)
	for _, c := range cols {
		switch p := c.field(v).(type) {
		case *[]int64:
			*p, err = adopt[int64](r, n, c.name)
		case *[]int32:
			*p, err = adopt[int32](r, n, c.name)
		case *[]uint16:
			*p, err = adopt[uint16](r, n, c.name)
		case *[]uint8:
			*p, err = adopt[uint8](r, n, c.name)
		case *[]string:
			*p, err = r.dict(c.name)
		}
		if err != nil {
			return 0, err
		}
	}
	if r.off != len(r.b) {
		return 0, r.errf("%d trailing bytes after the last column", len(r.b)-r.off)
	}
	return n, nil
}

// adoptSection verifies the checksum of the first section with the
// given id and adopts its columns into v, returning the row count.
func adoptSection[V any](sections []section, id uint32, v *V, cols []column[V]) (int, error) {
	payload, err := findSection(sections, id)
	if err != nil {
		return 0, err
	}
	return adoptColumns(&reader{name: sectionName(id), b: aligned(payload)}, v, cols)
}

// loadIO adopts the io section's columns and rebuilds the records from
// them: the dataset keeps its I/O as records.
func loadIO(sections []section) ([]iolog.Record, error) {
	var c ioView
	n, err := adoptSection(sections, secIO, &c, ioColumns[:])
	if err != nil {
		return nil, err
	}
	recs := make([]iolog.Record, n)
	for i := range recs {
		recs[i] = iolog.Record{JobID: c.JobID[i], BytesRead: c.BytesRead[i], BytesWritten: c.BytesWritten[i],
			FilesRead: int(c.FilesRead[i]), FilesWritten: int(c.FilesWritten[i]), MetaOps: c.MetaOps[i],
			IOTime: time.Duration(c.IOTimeNanos[i])}
	}
	return recs, nil
}
