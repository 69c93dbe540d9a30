package iolog

import (
	"strconv"
	"time"
)

// Columns is the column-major decomposition of an I/O log, the shape the
// binary corpus snapshot (internal/pack) stores. IOTime is kept in
// nanoseconds at the CSV codec's precision (CSVGranular), so a snapshot
// agrees exactly with the CSV files it sits beside.
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
		c.IOTimeNanos[i] = int64(CSVGranular(r.IOTime))
	}
	return c
}

// CSVGranular returns the duration as the CSV codec round-trips it: written
// as seconds with three decimals, parsed back as float seconds. It is the
// I/O log's time resolution, and idempotent for durations that already
// came from a CSV parse.
func CSVGranular(d time.Duration) time.Duration {
	s := strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return d // unreachable: s was just formatted
	}
	return time.Duration(v * float64(time.Second))
}
