package iolog

import (
	"strconv"
	"time"
)

// Columns is the column-major decomposition of an I/O log, the shape the
// binary corpus snapshot (internal/pack) stores. IOTime is kept in
// nanoseconds at the CSV codec's precision (io_time_s rounds to three
// decimals on disk), so a snapshot always agrees exactly with the CSV
// files it sits beside, whatever precision the in-memory record carried.
type Columns struct {
	JobID        []int64
	BytesRead    []int64
	BytesWritten []int64
	FilesRead    []int64
	FilesWritten []int64
	MetaOps      []int64
	IOTimeNanos  []int64
}

// Rows returns the number of records the columns hold.
func (c *Columns) Rows() int { return len(c.JobID) }

// ToColumns decomposes records column-major.
func ToColumns(records []Record) *Columns {
	n := len(records)
	c := &Columns{
		JobID:        make([]int64, n),
		BytesRead:    make([]int64, n),
		BytesWritten: make([]int64, n),
		FilesRead:    make([]int64, n),
		FilesWritten: make([]int64, n),
		MetaOps:      make([]int64, n),
		IOTimeNanos:  make([]int64, n),
	}
	for i := range records {
		r := &records[i]
		c.JobID[i] = r.JobID
		c.BytesRead[i] = r.BytesRead
		c.BytesWritten[i] = r.BytesWritten
		c.FilesRead[i] = int64(r.FilesRead)
		c.FilesWritten[i] = int64(r.FilesWritten)
		c.MetaOps[i] = r.MetaOps
		c.IOTimeNanos[i] = csvGranular(r.IOTime)
	}
	return c
}

// csvGranular returns the duration as the CSV codec round-trips it: written
// as seconds with three decimals, parsed back as float seconds. Idempotent
// for durations that already came from a CSV parse.
func csvGranular(d time.Duration) int64 {
	s := strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return int64(d) // unreachable: s was just formatted
	}
	return int64(time.Duration(v * float64(time.Second)))
}
