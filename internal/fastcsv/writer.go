package fastcsv

import (
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// flushThreshold is the buffered-bytes level past which EndRecord writes
// the buffer to the underlying io.Writer.
const flushThreshold = 32 << 10

// Writer builds CSV rows field by field into one reused buffer using the
// strconv.Append* family, so encoding a row performs no allocations. Its
// output is byte-identical to encoding/csv with default settings (',',
// '\n' line terminator, RFC-4180 quoting).
//
// Append fields with String/Int/Int64/Float, close each row with
// EndRecord, and finish with Flush. Write errors are sticky: they surface
// from Flush and make further writes no-ops.
type Writer struct {
	w       io.Writer
	buf     []byte
	err     error
	started bool // a field was written to the current record
}

// NewWriter returns a Writer encoding to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, flushThreshold+1024)}
}

// sep appends the comma separating fields within a record.
//
//mira:hotpath
func (w *Writer) sep() {
	if w.started {
		w.buf = append(w.buf, ',')
	}
	w.started = true
}

// String appends one field, quoting it exactly as encoding/csv would.
//
//mira:hotpath
func (w *Writer) String(s string) {
	w.sep()
	if !needsQuotes(s) {
		w.buf = append(w.buf, s...)
		return
	}
	w.buf = append(w.buf, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			w.buf = append(w.buf, s...)
			break
		}
		w.buf = append(w.buf, s[:i+1]...)
		w.buf = append(w.buf, '"')
		s = s[i+1:]
	}
	w.buf = append(w.buf, '"')
}

// Int appends an integer field.
//
//mira:hotpath
func (w *Writer) Int(v int) {
	w.sep()
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
}

// Int64 appends a 64-bit integer field.
//
//mira:hotpath
func (w *Writer) Int64(v int64) {
	w.sep()
	w.buf = strconv.AppendInt(w.buf, v, 10)
}

// Float appends a float field in strconv's 'f' format with prec digits.
//
//mira:hotpath
func (w *Writer) Float(v float64, prec int) {
	w.sep()
	w.buf = strconv.AppendFloat(w.buf, v, 'f', prec, 64)
}

// EndRecord terminates the current row and flushes the buffer to the
// underlying writer once it exceeds the flush threshold.
//
//mira:hotpath
func (w *Writer) EndRecord() {
	w.buf = append(w.buf, '\n')
	w.started = false
	if len(w.buf) >= flushThreshold {
		w.flush()
	}
}

func (w *Writer) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Flush writes any buffered rows and returns the first write error.
func (w *Writer) Flush() error {
	w.flush()
	return w.err
}

// needsQuotes reports whether encoding/csv (Comma == ',') would quote the
// field: it contains a comma, quote or line break, starts with a space, or
// is the PostgreSQL end-of-data marker `\.`.
func needsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	if strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}
