package fastcsv

import (
	"bufio"
	"bytes"
	"io"
)

// Reader reads CSV records as byte-slice fields.
//
// Read returns a [][]byte whose backing arrays are owned by the Reader and
// overwritten by the next Read — callers must copy any field they retain
// (converting to string, as the log codecs do for genuinely textual
// columns, copies implicitly). Records may differ in field count; callers
// enforce their own schema, as the log codecs always did.
type Reader struct {
	br *bufio.Reader

	// lineBuf accumulates a physical line when it exceeds the bufio buffer.
	lineBuf []byte
	// rec holds the unescaped bytes of every field of the current record,
	// back to back; bounds holds (start, end) offset pairs into rec. Field
	// views are materialized only after the record is complete, because
	// appending to rec may relocate it.
	rec    []byte
	bounds []int
	fields [][]byte

	line int // physical lines consumed (1-based, for errors)
}

// NewReader returns a Reader reading from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// readLine returns the next physical line including its trailing newline
// (if present). The returned slice is only valid until the next call.
//
//mira:hotpath
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.lineBuf = append(r.lineBuf[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = r.br.ReadSlice('\n')
			r.lineBuf = append(r.lineBuf, line...)
		}
		line = r.lineBuf
	}
	if err == io.EOF && len(line) > 0 {
		err = nil // final line without a terminator
	}
	if err == nil {
		r.line++
	}
	return line, err
}

// trimEOL removes one trailing "\n" or "\r\n" from line.
func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	return line
}

// Read parses the next record. It returns io.EOF (and no record) at end of
// input. Blank lines are skipped, matching encoding/csv.
//
//mira:hotpath
func (r *Reader) Read() ([][]byte, error) {
	var line []byte
	for {
		var err error
		line, err = r.readLine()
		if err != nil {
			return nil, err
		}
		if len(trimEOL(line)) > 0 {
			break
		}
	}
	r.rec = r.rec[:0]
	r.bounds = r.bounds[:0]
	startLine := r.line

	for {
		fieldStart := len(r.rec)
		if len(line) == 0 || line[0] != '"' { // unquoted field
			body := trimEOL(line)
			i := bytes.IndexByte(body, ',')
			if i < 0 {
				i = len(body)
			}
			field := body[:i]
			if bytes.IndexByte(field, '"') >= 0 {
				return nil, &ParseError{Line: startLine, Err: ErrBareQuote}
			}
			r.rec = append(r.rec, field...)
			r.bounds = append(r.bounds, fieldStart, len(r.rec))
			if i < len(body) { // consumed up to a comma: more fields follow
				line = body[i+1:]
				continue
			}
			break // end of record
		}

		// Quoted field: scan past the opening quote, unescaping "" pairs
		// and pulling in more physical lines while the quote stays open.
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			if i < 0 {
				// Quote still open: the field spans a line break. Normalize
				// the terminator to '\n' as encoding/csv does.
				r.rec = append(r.rec, trimEOL(line)...)
				r.rec = append(r.rec, '\n')
				var err error
				line, err = r.readLine()
				if err == io.EOF {
					return nil, &ParseError{Line: startLine, Err: ErrQuote}
				}
				if err != nil {
					return nil, err
				}
				continue
			}
			r.rec = append(r.rec, line[:i]...)
			line = line[i+1:]
			if len(line) > 0 && line[0] == '"' { // escaped quote
				r.rec = append(r.rec, '"')
				line = line[1:]
				continue
			}
			break // closing quote
		}
		r.bounds = append(r.bounds, fieldStart, len(r.rec))
		rest := trimEOL(line)
		switch {
		case len(rest) > 0 && rest[0] == ',':
			line = rest[1:]
			continue
		case len(rest) == 0:
			// closing quote at end of record
		default:
			return nil, &ParseError{Line: r.line, Err: ErrQuote}
		}
		break
	}

	if cap(r.fields) < len(r.bounds)/2 {
		r.fields = make([][]byte, 0, len(r.bounds)/2)
	}
	r.fields = r.fields[:0]
	for i := 0; i < len(r.bounds); i += 2 {
		r.fields = append(r.fields, r.rec[r.bounds[i]:r.bounds[i+1]])
	}
	return r.fields, nil
}
