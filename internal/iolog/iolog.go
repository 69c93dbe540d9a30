// Package iolog models the Darshan-style I/O behavior log of Mira: one
// summary record per instrumented job with aggregate bytes moved, file
// counts and time spent in I/O.
package iolog

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/fastcsv"
)

// Record is one job's I/O summary.
type Record struct {
	JobID        int64
	BytesRead    int64
	BytesWritten int64
	FilesRead    int
	FilesWritten int
	MetaOps      int64         // metadata operations (open/stat/seek)
	IOTime       time.Duration // cumulative time in I/O calls across ranks
}

// TotalBytes returns read+written bytes.
func (r *Record) TotalBytes() int64 { return r.BytesRead + r.BytesWritten }

// Validate performs sanity checks.
func (r *Record) Validate() error {
	switch {
	case r.JobID <= 0:
		return fmt.Errorf("iolog: record for job %d: non-positive job id", r.JobID)
	case r.BytesRead < 0 || r.BytesWritten < 0:
		return fmt.Errorf("iolog: job %d: negative byte counts", r.JobID)
	case r.FilesRead < 0 || r.FilesWritten < 0 || r.MetaOps < 0:
		return fmt.Errorf("iolog: job %d: negative counts", r.JobID)
	case r.IOTime < 0:
		return fmt.Errorf("iolog: job %d: negative io time", r.JobID)
	}
	return nil
}

var header = []string{
	"job_id", "bytes_read", "bytes_written", "files_read", "files_written",
	"meta_ops", "io_time_s",
}

// writeRecord encodes one I/O summary row.
func writeRecord(fw *fastcsv.Writer, r *Record) {
	fw.Int64(r.JobID)
	fw.Int64(r.BytesRead)
	fw.Int64(r.BytesWritten)
	fw.Int(r.FilesRead)
	fw.Int(r.FilesWritten)
	fw.Int64(r.MetaOps)
	fw.Float(r.IOTime.Seconds(), 3)
	fw.EndRecord()
}

// WriteCSV writes records to w, header first.
func WriteCSV(w io.Writer, records []Record) error {
	fw := fastcsv.NewWriter(w)
	for _, h := range header {
		fw.String(h)
	}
	fw.EndRecord()
	for i := range records {
		writeRecord(fw, &records[i])
	}
	if err := fw.Flush(); err != nil {
		return fmt.Errorf("iolog: write records: %w", err)
	}
	return nil
}

// headerOK checks field count plus leading column name, the same test the
// encoding/csv codec applied.
func headerOK(first [][]byte) bool {
	return len(first) == len(header) && string(first[0]) == header[0]
}

func headerStrings(rec [][]byte) []string {
	out := make([]string, len(rec))
	for i, f := range rec {
		out[i] = string(f)
	}
	return out
}

// ReadCSV reads an I/O log written by WriteCSV.
func ReadCSV(r io.Reader) ([]Record, error) {
	cr := fastcsv.NewReader(r)
	first, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("iolog: read header: %w", err)
	}
	if !headerOK(first) {
		return nil, fmt.Errorf("iolog: unexpected header %v", headerStrings(first))
	}
	var records []Record
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("iolog: line %d: %w", line, err)
		}
		rr, err := parseRow(rec)
		if err != nil {
			return nil, fmt.Errorf("iolog: line %d: %w", line, err)
		}
		records = append(records, rr)
	}
	return records, nil
}

func parseRow(rec [][]byte) (Record, error) {
	if len(rec) != len(header) {
		return Record{}, fmt.Errorf("want %d fields, got %d", len(header), len(rec))
	}
	var r Record
	var err error
	if r.JobID, err = fastcsv.Int64(rec[0]); err != nil {
		return Record{}, fmt.Errorf("job_id: %w", err)
	}
	if r.BytesRead, err = fastcsv.Int64(rec[1]); err != nil {
		return Record{}, fmt.Errorf("bytes_read: %w", err)
	}
	if r.BytesWritten, err = fastcsv.Int64(rec[2]); err != nil {
		return Record{}, fmt.Errorf("bytes_written: %w", err)
	}
	if r.FilesRead, err = fastcsv.Int(rec[3]); err != nil {
		return Record{}, fmt.Errorf("files_read: %w", err)
	}
	if r.FilesWritten, err = fastcsv.Int(rec[4]); err != nil {
		return Record{}, fmt.Errorf("files_written: %w", err)
	}
	if r.MetaOps, err = fastcsv.Int64(rec[5]); err != nil {
		return Record{}, fmt.Errorf("meta_ops: %w", err)
	}
	secs, err := fastcsv.Float(rec[6])
	if err != nil {
		return Record{}, fmt.Errorf("io_time_s: %w", err)
	}
	r.IOTime = time.Duration(secs * float64(time.Second))
	return r, nil
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
