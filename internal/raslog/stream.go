package raslog

import (
	"fmt"
	"io"

	"repro/internal/fastcsv"
)

// Scanner streams a RAS CSV log one event at a time without materializing
// the whole slice — RAS logs are the largest of the four sources (the real
// Mira log holds tens of millions of records), and most analyses are
// single-pass. Decoding goes through the fastcsv byte-slice reader plus
// the shared column caches, so a scan allocates only for the first
// occurrence of each categorical value.
//
// Usage:
//
//	sc, err := NewScanner(r)
//	for sc.Scan() {
//	    e := sc.Event()
//	    ...
//	}
//	if err := sc.Err(); err != nil { ... }
type Scanner struct {
	cr   *fastcsv.Reader
	dec  *decoder
	cur  Event
	err  error
	line int
	done bool
}

// NewScanner validates the header and returns a streaming reader.
func NewScanner(r io.Reader) (*Scanner, error) {
	cr := fastcsv.NewReader(r)
	first, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("raslog: read header: %w", err)
	}
	if !headerOK(first) {
		return nil, fmt.Errorf("raslog: unexpected header %v", headerStrings(first))
	}
	return &Scanner{cr: cr, dec: newDecoder(), line: 1}, nil
}

// Scan advances to the next event. It returns false at EOF or on error;
// check Err to distinguish.
func (s *Scanner) Scan() bool {
	if s.done || s.err != nil {
		return false
	}
	s.line++
	rec, err := s.cr.Read()
	if err == io.EOF {
		s.done = true
		return false
	}
	if err != nil {
		s.err = fmt.Errorf("raslog: line %d: %w", s.line, err)
		return false
	}
	e, err := s.dec.parseRow(rec)
	if err != nil {
		s.err = fmt.Errorf("raslog: line %d: %w", s.line, err)
		return false
	}
	s.cur = e
	return true
}

// Event returns the current event. Valid after a true Scan.
func (s *Scanner) Event() Event { return s.cur }

// Err returns the first error encountered, if any.
func (s *Scanner) Err() error { return s.err }
