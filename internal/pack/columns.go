package pack

import (
	"encoding/binary"
	"fmt"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
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

// rowErr reports a stored value that fails its column's check.
func rowErr(section string, row int, format string, args ...any) error {
	return fmt.Errorf("pack: section %s row %d: %s", section, row, fmt.Sprintf(format, args...))
}

// codeErr reports a dictionary code outside its table.
func codeErr(section, column string, row int, code int32, n int) error {
	return rowErr(section, row, "%s code %d out of range [0,%d)", column, code, n)
}

// loadJobs adopts the jobs section into a job view and validates it in
// one pass: dictionary codes, the count-like columns, and the duration,
// core-second and family columns against their derivation.
func loadJobs(payload []byte) (*scan.JobView, error) {
	v := &scan.JobView{}
	n, err := adoptColumns(&reader{name: "jobs", b: aligned(payload)}, v, jobColumns[:])
	if err != nil {
		return nil, err
	}
	v.N = n
	users, projects, queues := uint32(len(v.Users)), uint32(len(v.Projects)), uint32(len(v.Queues))
	lastExit, lastFamily := int32(0), joblog.FamilyCodeOf(0)
	for i := 0; i < n; i++ {
		switch {
		case uint32(v.UserID[i]) >= users:
			return nil, codeErr("jobs", "user", i, v.UserID[i], len(v.Users))
		case uint32(v.ProjectID[i]) >= projects:
			return nil, codeErr("jobs", "project", i, v.ProjectID[i], len(v.Projects))
		case uint32(v.QueueID[i]) >= queues:
			return nil, codeErr("jobs", "queue", i, v.QueueID[i], len(v.Queues))
		case !core.CountInRange(v.WalltimeSec[i]):
			return nil, rowErr("jobs", i, "walltime %d out of range [0, 2^31)", v.WalltimeSec[i])
		case !core.CountInRange(int64(v.Nodes[i])):
			return nil, rowErr("jobs", i, "node count %d out of range [0, 2^31)", v.Nodes[i])
		case !core.CountInRange(int64(v.RanksPerNode[i])):
			return nil, rowErr("jobs", i, "ranks-per-node %d out of range [0, 2^31)", v.RanksPerNode[i])
		case !core.CountInRange(int64(v.NumTasks[i])):
			return nil, rowErr("jobs", i, "task count %d out of range [0, 2^31)", v.NumTasks[i])
		}
		dur := v.EndUnix[i] - v.StartUnix[i]
		if v.DurSec[i] != dur || v.CoreSec[i] != int64(v.Nodes[i])*16*dur {
			return nil, rowErr("jobs", i, "duration %d and core seconds %d do not match the times and node count", v.DurSec[i], v.CoreSec[i])
		}
		if e := v.Exit[i]; e != lastExit {
			lastExit, lastFamily = e, joblog.FamilyCodeOf(int(e))
		}
		if v.Family[i] != lastFamily {
			return nil, rowErr("jobs", i, "family %d does not match exit status %d", v.Family[i], v.Exit[i])
		}
	}
	return v, nil
}

// loadTasks adopts the tasks section into a task view and validates its
// block codes and node counts.
func loadTasks(payload []byte) (*scan.TaskView, error) {
	v := &scan.TaskView{}
	n, err := adoptColumns(&reader{name: "tasks", b: aligned(payload)}, v, taskColumns[:])
	if err != nil {
		return nil, err
	}
	v.N = n
	// Block codes repeat heavily (a few hundred distinct blocks), so each
	// run of one code is validated once.
	lastBlock := -1
	for i := 0; i < n; i++ {
		if code := int(v.Block[i]); code != lastBlock {
			if _, err := machine.BlockFromCode(uint32(code)); err != nil {
				return nil, rowErr("tasks", i, "%v", err)
			}
			lastBlock = code
		}
		if !core.CountInRange(int64(v.Nodes[i])) {
			return nil, rowErr("tasks", i, "node count %d out of range [0, 2^31)", v.Nodes[i])
		}
	}
	return v, nil
}

// loadEvents adopts the events section into an event view and validates
// it in one pass that also checks the time order and splits the events
// by severity, the index core.IndexEvents would derive.
func loadEvents(payload []byte) (*scan.EventView, core.EventIndex, error) {
	v := &scan.EventView{}
	var x core.EventIndex
	n, err := adoptColumns(&reader{name: "events", b: aligned(payload)}, v, eventColumns[:])
	if err != nil {
		return nil, x, err
	}
	v.N = n
	msgIDs, comps, cats, msgs := uint32(len(v.MsgIDs)), uint32(len(v.Comps)), uint32(len(v.Cats)), uint32(len(v.Messages))
	// Location codes are high-cardinality (events land on any of 49k
	// nodes), but neighbouring events often share one, so a code is
	// decoded only when it differs from the previous row's.
	lastCode := int32(-1)
	lastMid, lastRack := int32(-1), int32(-1)
	for i := 0; i < n; i++ {
		switch {
		case uint32(v.MsgID[i]) >= msgIDs:
			return nil, x, codeErr("events", "message id", i, v.MsgID[i], len(v.MsgIDs))
		case uint32(v.CompID[i]) >= comps:
			return nil, x, codeErr("events", "component", i, v.CompID[i], len(v.Comps))
		case uint32(v.CatID[i]) >= cats:
			return nil, x, codeErr("events", "category", i, v.CatID[i], len(v.Cats))
		case uint32(v.Msg[i]) >= msgs:
			return nil, x, codeErr("events", "message", i, v.Msg[i], len(v.Messages))
		case !core.CountInRange(int64(v.Count[i])):
			return nil, x, rowErr("events", i, "event count %d out of range [0, 2^31)", v.Count[i])
		case i > 0 && v.TimeUnix[i] < v.TimeUnix[i-1]:
			return nil, x, rowErr("events", i, "event %d at unix %d precedes the event before it (unix %d): events are not in time order", v.RecID[i], v.TimeUnix[i], v.TimeUnix[i-1])
		}
		if code := v.LocCode[i]; code != lastCode {
			if uint32(code) >= 1<<19 {
				return nil, x, rowErr("events", i, "location code %d out of range [0,%d)", code, 1<<19)
			}
			l, err := machine.LocationFromCode(uint32(code))
			if err != nil {
				return nil, x, rowErr("events", i, "%v", err)
			}
			lastCode = code
			lastMid, lastRack = core.LocIDs(l)
		}
		if v.MidplaneID[i] != lastMid || v.RackID[i] != lastRack {
			return nil, x, rowErr("events", i, "midplane %d and rack %d do not match location code %d", v.MidplaneID[i], v.RackID[i], lastCode)
		}
		switch raslog.Severity(v.Sev[i]) {
		case raslog.Fatal:
			x.Fatal = append(x.Fatal, i)
		case raslog.Warn:
			x.Warn = append(x.Warn, i)
		case raslog.Info:
			x.InfoN++
		default:
			return nil, core.EventIndex{}, rowErr("events", i, "severity %d out of range", v.Sev[i])
		}
	}
	return v, x, nil
}

// loadIO adopts the io section's columns and rebuilds the records from
// them: the dataset keeps its I/O as records.
func loadIO(payload []byte) ([]iolog.Record, error) {
	var c ioView
	n, err := adoptColumns(&reader{name: "io", b: aligned(payload)}, &c, ioColumns[:])
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
