package pack

import (
	"encoding/binary"
	"fmt"
)

// sectionReader decodes one checksum-verified section payload. Every read
// is bounds-checked so a malformed (but checksum-colliding) payload returns
// a descriptive error instead of panicking or over-allocating.
//
// Errors are sticky: decoders call the primitives unconditionally and check
// err once per column, which keeps the per-value hot path free of error
// plumbing. After the first failure every primitive returns zeros, so a
// bounded loop over a corrupt payload terminates without doing further
// work.
//
// The column decoders (varintsInto, deltasInto, raw64sInto, varints32Into,
// dictIndexes32Into) run the whole column as one loop over local variables —
// no per-value method calls — because the snapshot load path decodes about
// a million values per 120 corpus days and the call overhead alone would
// otherwise dominate the load. One-, two- and three-byte varints decode
// inline (delta-coded timestamps and 19-bit location codes cover nearly
// every value); only longer encodings fall back to binary.Uvarint.
type sectionReader struct {
	name string
	b    []byte
	off  int
	err  error
}

func (r *sectionReader) remaining() int { return len(r.b) - r.off }

func (r *sectionReader) errf(format string, args ...any) error {
	return fmt.Errorf("pack: section %s at byte %d: %s", r.name, r.off, fmt.Sprintf(format, args...))
}

// fail records the first error; later failures keep it.
func (r *sectionReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = r.errf(format, args...)
	}
}

// uv decodes one uvarint.
func (r *sectionReader) uv() uint64 {
	if i := r.off; i < len(r.b) && r.b[i] < 0x80 {
		r.off = i + 1
		return uint64(r.b[i])
	}
	return r.uvSlow()
}

func (r *sectionReader) uvSlow() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong uvarint")
		return 0
	}
	r.off += n
	return v
}

// count reads a row/element count and sanity-checks it against the bytes
// left (every encoded element occupies at least one byte).
func (r *sectionReader) count(what string) int {
	v := r.uv()
	if r.err != nil {
		return 0
	}
	if v > uint64(r.remaining()) {
		r.fail("%s count %d exceeds remaining %d bytes", what, v, r.remaining())
		return 0
	}
	return int(v)
}

// varintsInto decodes len(dst) zigzag varints into dst.
func (r *sectionReader) varintsInto(dst []int64) {
	b, off := r.b, r.off
	for i := range dst {
		var ux uint64
		if off < len(b) && b[off] < 0x80 {
			ux = uint64(b[off])
			off++
		} else if off+1 < len(b) && b[off+1] < 0x80 {
			ux = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		} else if off+2 < len(b) && b[off+2] < 0x80 {
			ux = uint64(b[off]&0x7f) | uint64(b[off+1]&0x7f)<<7 | uint64(b[off+2])<<14
			off += 3
		} else {
			x, n := binary.Uvarint(b[off:])
			if n <= 0 {
				r.off = off
				r.fail("truncated or overlong uvarint")
				return
			}
			ux = x
			off += n
		}
		dst[i] = int64(ux>>1) ^ -int64(ux&1)
	}
	r.off = off
}

// deltasInto decodes len(dst) delta-encoded values into dst, resolving the
// running sums.
func (r *sectionReader) deltasInto(dst []int64) {
	b, off := r.b, r.off
	prev := int64(0)
	for i := range dst {
		var ux uint64
		if off < len(b) && b[off] < 0x80 {
			ux = uint64(b[off])
			off++
		} else if off+1 < len(b) && b[off+1] < 0x80 {
			ux = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		} else if off+2 < len(b) && b[off+2] < 0x80 {
			ux = uint64(b[off]&0x7f) | uint64(b[off+1]&0x7f)<<7 | uint64(b[off+2])<<14
			off += 3
		} else {
			x, n := binary.Uvarint(b[off:])
			if n <= 0 {
				r.off = off
				r.fail("truncated or overlong uvarint")
				return
			}
			ux = x
			off += n
		}
		prev += int64(ux>>1) ^ -int64(ux&1)
		dst[i] = prev
	}
	r.off = off
}

// raw64sInto decodes len(dst) raw little-endian int64s into dst.
func (r *sectionReader) raw64sInto(dst []int64) {
	if r.remaining() < 8*len(dst) {
		//lint:ignore hotalloc cold corrupt-input path; boxing happens only when the decode already failed
		r.fail("raw column needs %d bytes, %d remain", 8*len(dst), r.remaining())
		return
	}
	b := r.b[r.off:]
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	r.off += 8 * len(dst)
}

// dictTable decodes a dictionary's entry table. Decoded rows share the
// entries' string backing, so a dictionary column interns for free.
func (r *sectionReader) dictTable() []string {
	n := r.count("dictionary")
	entries := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		size := r.uv()
		if size > uint64(r.remaining()) {
			r.fail("dictionary entry of %d bytes exceeds remaining %d", size, r.remaining())
			break
		}
		entries = append(entries, string(r.b[r.off:r.off+int(size)]))
		r.off += int(size)
	}
	return entries
}

// varints32Into decodes len(dst) zigzag varints into dst, failing on any
// value outside [0, bound). Columns whose values are bounded by
// construction (severities, location codes, dictionary indexes, counts)
// decode through this into int32 scratch: half the scratch bytes of an
// int64 column, which matters because scratch zeroing and cache traffic
// are a large share of a snapshot load.
func (r *sectionReader) varints32Into(dst []int32, bound int64, what string) {
	b, off := r.b, r.off
	for i := range dst {
		var ux uint64
		if off < len(b) && b[off] < 0x80 {
			ux = uint64(b[off])
			off++
		} else if off+1 < len(b) && b[off+1] < 0x80 {
			ux = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		} else if off+2 < len(b) && b[off+2] < 0x80 {
			ux = uint64(b[off]&0x7f) | uint64(b[off+1]&0x7f)<<7 | uint64(b[off+2])<<14
			off += 3
		} else {
			x, n := binary.Uvarint(b[off:])
			if n <= 0 {
				r.off = off
				r.fail("truncated or overlong uvarint")
				return
			}
			ux = x
			off += n
		}
		v := int64(ux>>1) ^ -int64(ux&1)
		if v < 0 || v >= bound {
			r.off = off
			//lint:ignore hotalloc cold corrupt-input path; boxing happens only when the decode already failed
			r.fail("%s %d out of range [0,%d)", what, v, bound)
			return
		}
		dst[i] = int32(v)
	}
	r.off = off
}

// dictIndexes32Into decodes len(dst) dictionary row indexes into int32
// scratch, each bounds-checked against a table of n entries. Callers must
// not use dst to index the table if r.err is set afterwards.
func (r *sectionReader) dictIndexes32Into(dst []int32, n int) {
	b, off := r.b, r.off
	for i := range dst {
		var ux uint64
		if off < len(b) && b[off] < 0x80 {
			ux = uint64(b[off])
			off++
		} else if off+1 < len(b) && b[off+1] < 0x80 {
			ux = uint64(b[off]&0x7f) | uint64(b[off+1])<<7
			off += 2
		} else {
			x, sz := binary.Uvarint(b[off:])
			if sz <= 0 {
				r.off = off
				r.fail("truncated or overlong uvarint")
				return
			}
			ux = x
			off += sz
		}
		if ux >= uint64(n) {
			r.off = off
			//lint:ignore hotalloc cold corrupt-input path; boxing happens only when the decode already failed
			r.fail("dictionary index %d out of range [0,%d)", ux, n)
			return
		}
		dst[i] = int32(ux)
	}
	r.off = off
}

// done verifies the decode succeeded and consumed the payload exactly.
func (r *sectionReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.remaining() != 0 {
		return r.errf("%d trailing bytes after decode", r.remaining())
	}
	return nil
}
