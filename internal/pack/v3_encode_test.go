package pack

import "encoding/binary"

// sectionWriter builds one section payload. Columns are appended with the
// three encodings of the format: delta+varint for sorted-ish integer
// streams (record ids, timestamps), plain zigzag varint for small integers,
// raw little-endian int64 for wide numerics, plus first-appearance-order
// dictionaries for low-cardinality string columns.
type sectionWriter struct {
	buf []byte
}

func (w *sectionWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *sectionWriter) varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// deltaInt64s encodes vals as zigzag varints of consecutive differences.
// For sorted columns the deltas are small and non-negative, so most values
// take one or two bytes; unsorted columns still round-trip, just larger.
func (w *sectionWriter) deltaInt64s(vals []int64) {
	prev := int64(0)
	for _, v := range vals {
		w.varint(v - prev)
		prev = v
	}
}

// varints encodes vals as independent zigzag varints.
func (w *sectionWriter) varints(vals []int64) {
	for _, v := range vals {
		w.varint(v)
	}
}

// rawInt64s encodes vals as fixed-width little-endian int64s — for wide
// numerics (byte counters, nanosecond durations) where varints save little.
func (w *sectionWriter) rawInt64s(vals []int64) {
	for _, v := range vals {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
	}
}

// deltaInts is deltaInt64s for index slices.
func (w *sectionWriter) deltaInts(vals []int) {
	prev := 0
	for _, v := range vals {
		w.varint(int64(v - prev))
		prev = v
	}
}

// dict encodes a string column as a first-appearance-order dictionary
// (uvarint count, then len-prefixed entries) followed by one uvarint
// dictionary index per row.
func (w *sectionWriter) dict(vals []string) {
	index := make(map[string]uint64, 64)
	var entries []string
	idx := make([]uint64, len(vals))
	for i, s := range vals {
		id, ok := index[s]
		if !ok {
			id = uint64(len(entries))
			index[s] = id
			entries = append(entries, s)
		}
		idx[i] = id
	}
	w.uvarint(uint64(len(entries)))
	for _, s := range entries {
		w.uvarint(uint64(len(s)))
		w.buf = append(w.buf, s...)
	}
	for _, id := range idx {
		w.uvarint(id)
	}
}
