// Package bitmap implements a roaring-style compressed bitmap over uint32
// row ids: the value space is chunked by the high 16 bits, and each chunk
// stores its low 16 bits in whichever container is smallest — a sorted
// uint16 array for sparse chunks, a 65536-bit bitset for dense ones, or a
// run-length list for contiguous ones. The per-dimension selection indexes
// of core.Dataset are bitmaps, predicate evaluation is bitmap algebra
// (And/Or/AndNot), and the fused scan engine consumes selections through
// AppendBlockRuns, which yields the selected row runs of one scan block
// (DESIGN.md §14).
//
// Bitmaps are not safe for concurrent mutation; a built bitmap is safe for
// concurrent readers. The And/Or/AndNot operators write into their receiver
// reusing its container storage, so steady-state predicate evaluation over
// a scratch bitmap allocates nothing.
package bitmap

import "math/bits"

// Container encodings. A chunk's container is chosen by size: an array
// costs 2 bytes per value, a bitset a flat 8 KiB, a run list 4 bytes per
// run. arrayCutoff is the classic roaring crossover: above 4096 values the
// bitset is smaller than the array.
const (
	arrayT = uint8(iota)
	bitsetT
	runT

	arrayCutoff = 4096
	bitsetWords = 1 << 16 / 64 // 1024
)

// container is one 65536-value chunk. The payload lives in arr (arrayT:
// sorted values; runT: [lo0,hi0,lo1,hi1,...] inclusive bounds) or bits
// (bitsetT). Both slices are retained across type changes so reusing a
// container for an operation result never reallocates once warm.
type container struct {
	typ  uint8
	n    int32 // cardinality
	arr  []uint16
	bits []uint64
}

// Bitmap is a compressed set of uint32 values. The zero value is an empty
// bitmap ready for use.
type Bitmap struct {
	keys []uint16 // sorted chunk keys (value >> 16)
	ctrs []container
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// Clear empties the bitmap, retaining container storage for reuse.
func (b *Bitmap) Clear() {
	b.keys = b.keys[:0]
	b.ctrs = b.ctrs[:0]
}

// chunkIndex returns the position of key in b.keys, or (insert-position,
// false) when absent.
func (b *Bitmap) chunkIndex(key uint16) (int, bool) {
	lo, hi := 0, len(b.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(b.keys) && b.keys[lo] == key
}

// chunkFor returns the container for key, creating it in sorted position.
func (b *Bitmap) chunkFor(key uint16) *container {
	i, ok := b.chunkIndex(key)
	if !ok {
		b.keys = append(b.keys, 0)
		copy(b.keys[i+1:], b.keys[i:])
		b.keys[i] = key
		b.ctrs = append(b.ctrs, container{})
		copy(b.ctrs[i+1:], b.ctrs[i:])
		b.ctrs[i] = container{typ: arrayT}
	}
	return &b.ctrs[i]
}

// Add inserts x. Appending ascending values — the index-build order — is
// O(1) amortized; out-of-order inserts pay a binary search plus a shift.
func (b *Bitmap) Add(x uint32) {
	c := b.chunkFor(uint16(x >> 16))
	low := uint16(x)
	switch c.typ {
	case arrayT:
		if n := len(c.arr); n == 0 || c.arr[n-1] < low {
			c.arr = append(c.arr, low)
			c.n++
		} else {
			i := searchU16(c.arr, low)
			if i < n && c.arr[i] == low {
				return
			}
			c.arr = append(c.arr, 0)
			copy(c.arr[i+1:], c.arr[i:])
			c.arr[i] = low
			c.n++
		}
		if c.n > arrayCutoff {
			c.toBitset()
		}
	case bitsetT:
		w, m := low>>6, uint64(1)<<(low&63)
		if c.bits[w]&m == 0 {
			c.bits[w] |= m
			c.n++
		}
	case runT:
		// Mutating a run container falls back to the bitset form; Optimize
		// re-compresses afterwards.
		c.runToBitset()
		b.Add(x)
	}
}

// FromSorted returns the bitmap of vals, which must be strictly
// ascending. Each chunk's container is allocated once at its final size —
// an array when the chunk holds at most arrayCutoff values, a bitset above
// that — and then optimized as Optimize would, so the result holds the
// same encodings as an Add-built bitmap after Optimize without the
// append growth or the payload a promotion leaves behind.
func FromSorted(vals []uint32) *Bitmap {
	chunks := 0
	for i, v := range vals {
		if i == 0 || v>>16 != vals[i-1]>>16 {
			chunks++
		}
	}
	b := &Bitmap{keys: make([]uint16, 0, chunks), ctrs: make([]container, 0, chunks)}
	for len(vals) > 0 {
		key := vals[0] >> 16
		n := 1
		for n < len(vals) && vals[n]>>16 == key {
			n++
		}
		c := container{typ: arrayT, n: int32(n)}
		if n <= arrayCutoff {
			c.arr = make([]uint16, n)
			for i, v := range vals[:n] {
				c.arr[i] = uint16(v)
			}
		} else {
			c.typ = bitsetT
			c.bits = make([]uint64, bitsetWords)
			for _, v := range vals[:n] {
				c.bits[uint16(v)>>6] |= uint64(1) << (v & 63)
			}
		}
		c.optimize()
		if c.typ == runT {
			c.bits = nil // the bitset a run list replaced
		}
		b.keys = append(b.keys, uint16(key))
		b.ctrs = append(b.ctrs, c)
		vals = vals[n:]
	}
	return b
}

// AddRange inserts every value in [lo, hi).
func (b *Bitmap) AddRange(lo, hi uint32) {
	for lo < hi {
		key := uint16(lo >> 16)
		chunkEnd := (uint32(key) + 1) << 16 // exclusive; 0 means 1<<32 via uint32 wrap guard below
		end := hi
		if key != uint16((hi-1)>>16) {
			end = chunkEnd
		}
		c := b.chunkFor(key)
		c.addRangeLow(uint16(lo), uint16(end-1))
		if end == 0 || end >= hi {
			return
		}
		lo = end
	}
}

// addRangeLow inserts the inclusive low-bit range [lo, hi] into a container.
func (c *container) addRangeLow(lo, hi uint16) {
	span := int32(hi) - int32(lo) + 1
	if c.n == 0 && c.typ != bitsetT {
		// Fresh chunk: represent the range directly as a run container.
		c.typ = runT
		c.arr = append(c.arr[:0], lo, hi)
		c.n = span
		return
	}
	if c.typ == runT {
		if nr := len(c.arr); nr >= 2 && uint32(c.arr[nr-1])+1 >= uint32(lo) && c.arr[nr-2] <= lo {
			// Extends (or overlaps) the last run.
			if hi > c.arr[nr-1] {
				c.n += int32(hi) - int32(c.arr[nr-1])
				c.arr[nr-1] = hi
			}
			return
		}
		c.runToBitset()
	}
	if c.typ == arrayT {
		c.toBitset()
	}
	for v := uint32(lo); v <= uint32(hi); v++ {
		w, m := v>>6, uint64(1)<<(v&63)
		if c.bits[w]&m == 0 {
			c.bits[w] |= m
			c.n++
		}
	}
}

// Contains reports whether x is set.
func (b *Bitmap) Contains(x uint32) bool {
	i, ok := b.chunkIndex(uint16(x >> 16))
	if !ok {
		return false
	}
	return b.ctrs[i].contains(uint16(x))
}

func (c *container) contains(low uint16) bool {
	switch c.typ {
	case arrayT:
		i := searchU16(c.arr, low)
		return i < len(c.arr) && c.arr[i] == low
	case bitsetT:
		return c.bits[low>>6]&(uint64(1)<<(low&63)) != 0
	default: // runT
		i := searchRuns(c.arr, low)
		return i >= 0
	}
}

// Cardinality returns the number of set values.
func (b *Bitmap) Cardinality() int {
	n := 0
	for i := range b.ctrs {
		n += int(b.ctrs[i].n)
	}
	return n
}

// IsEmpty reports whether no value is set.
func (b *Bitmap) IsEmpty() bool { return b.Cardinality() == 0 }

// Iterate calls f on every set value in ascending order until f returns
// false.
func (b *Bitmap) Iterate(f func(x uint32) bool) {
	for i := range b.keys {
		base := uint32(b.keys[i]) << 16
		c := &b.ctrs[i]
		switch c.typ {
		case arrayT:
			for _, v := range c.arr {
				if !f(base | uint32(v)) {
					return
				}
			}
		case bitsetT:
			for w, word := range c.bits {
				for word != 0 {
					t := bits.TrailingZeros64(word)
					if !f(base | uint32(w<<6+t)) {
						return
					}
					word &= word - 1
				}
			}
		default: // runT
			for r := 0; r+1 < len(c.arr); r += 2 {
				for v := uint32(c.arr[r]); v <= uint32(c.arr[r+1]); v++ {
					if !f(base | v) {
						return
					}
				}
			}
		}
	}
}

// Select returns the set value of rank i, the i-th smallest counting from
// 0; ok is false when i is negative or not below Cardinality. Whole chunks
// are skipped by their cardinalities, so the cost is one pass over the
// chunk headers plus a search inside one container, not a walk over the
// values before rank i.
func (b *Bitmap) Select(i int) (x uint32, ok bool) {
	if i < 0 {
		return 0, false
	}
	for k := range b.ctrs {
		c := &b.ctrs[k]
		if n := int(c.n); i >= n {
			i -= n
			continue
		}
		return uint32(b.keys[k])<<16 | uint32(c.selectLow(i)), true
	}
	return 0, false
}

// selectLow returns the low bits of the container's value of rank i,
// 0 ≤ i < c.n.
func (c *container) selectLow(i int) uint16 {
	switch c.typ {
	case arrayT:
		return c.arr[i]
	case bitsetT:
		for w, word := range c.bits {
			if n := bits.OnesCount64(word); i >= n {
				i -= n
				continue
			}
			for ; i > 0; i-- {
				word &= word - 1
			}
			return uint16(w<<6 + bits.TrailingZeros64(word))
		}
	default: // runT
		for r := 0; r+1 < len(c.arr); r += 2 {
			if n := int(c.arr[r+1]) - int(c.arr[r]) + 1; i >= n {
				i -= n
				continue
			}
			return c.arr[r] + uint16(i)
		}
	}
	panic("bitmap: container cardinality disagrees with its payload")
}

// Minimum returns the smallest set value; ok is false when empty.
func (b *Bitmap) Minimum() (uint32, bool) {
	for i := range b.keys {
		c := &b.ctrs[i]
		if c.n == 0 {
			continue
		}
		base := uint32(b.keys[i]) << 16
		switch c.typ {
		case arrayT:
			return base | uint32(c.arr[0]), true
		case bitsetT:
			for w, word := range c.bits {
				if word != 0 {
					return base | uint32(w<<6+bits.TrailingZeros64(word)), true
				}
			}
		default:
			return base | uint32(c.arr[0]), true
		}
	}
	return 0, false
}

// Maximum returns the largest set value; ok is false when empty.
func (b *Bitmap) Maximum() (uint32, bool) {
	for i := len(b.keys) - 1; i >= 0; i-- {
		c := &b.ctrs[i]
		if c.n == 0 {
			continue
		}
		base := uint32(b.keys[i]) << 16
		switch c.typ {
		case arrayT:
			return base | uint32(c.arr[len(c.arr)-1]), true
		case bitsetT:
			for w := len(c.bits) - 1; w >= 0; w-- {
				if word := c.bits[w]; word != 0 {
					return base | uint32(w<<6+63-bits.LeadingZeros64(word)), true
				}
			}
		default:
			return base | uint32(c.arr[len(c.arr)-1]), true
		}
	}
	return 0, false
}

// SizeBytes returns the compressed payload size: 2 bytes per array value,
// 8 KiB per bitset, 4 bytes per run, plus 2 bytes per chunk key. It is the
// figure `mirapack -info` reports per index dimension.
func (b *Bitmap) SizeBytes() int {
	n := 2 * len(b.keys)
	for i := range b.ctrs {
		c := &b.ctrs[i]
		switch c.typ {
		case arrayT, runT:
			n += 2 * len(c.arr)
		case bitsetT:
			n += 8 * bitsetWords
		}
	}
	return n
}

// Optimize rewrites every container into its smallest encoding: run when
// the run list is smaller than both alternatives, else array below the
// cutoff, else bitset. Index builders call it once after the build; the
// operators keep results in array/bitset canonical form on their own.
func (b *Bitmap) Optimize() {
	for i := range b.ctrs {
		b.ctrs[i].optimize()
	}
}

func (c *container) optimize() {
	if c.n == 0 {
		return
	}
	runs := c.countRuns()
	runBytes := 4 * runs
	arrBytes := 2 * int(c.n)
	const bitsetBytes = 8 * bitsetWords
	switch {
	case runBytes < arrBytes && runBytes < bitsetBytes:
		c.toRuns(runs)
	case c.n <= arrayCutoff:
		if c.typ == bitsetT {
			c.bitsetToArray()
		} else if c.typ == runT {
			c.runToArray()
		}
	default:
		if c.typ == arrayT {
			c.toBitset()
		} else if c.typ == runT {
			c.runToBitset()
		}
	}
}

// countRuns returns the number of maximal runs of consecutive values.
func (c *container) countRuns() int {
	switch c.typ {
	case runT:
		return len(c.arr) / 2
	case arrayT:
		runs := 0
		for i, v := range c.arr {
			if i == 0 || v != c.arr[i-1]+1 {
				runs++
			}
		}
		return runs
	default: // bitsetT
		runs := 0
		var prev uint64 // bit 63 of the previous word
		for _, w := range c.bits {
			// A run starts at every 0→1 transition; w&^(w<<1) marks bits
			// whose predecessor (within the word) is clear, and prev patches
			// the cross-word seam.
			starts := w &^ (w<<1 | prev)
			runs += bits.OnesCount64(starts)
			prev = w >> 63
		}
		return runs
	}
}

// toRuns rewrites the container as a run list of the given length.
func (c *container) toRuns(runs int) {
	if c.typ == runT {
		return
	}
	out := make([]uint16, 0, 2*runs)
	switch c.typ {
	case arrayT:
		for i, v := range c.arr {
			if i == 0 || v != c.arr[i-1]+1 {
				out = append(out, v, v)
			} else {
				out[len(out)-1] = v
			}
		}
	case bitsetT:
		open := false
		for w, word := range c.bits {
			for word != 0 {
				t := bits.TrailingZeros64(word)
				v := uint16(w<<6 + t)
				if open && out[len(out)-1]+1 == v {
					out[len(out)-1] = v
				} else {
					out = append(out, v, v)
					open = true
				}
				word &= word - 1
			}
		}
	}
	c.typ = runT
	c.arr = out
}

// toBitset promotes an array container to a bitset.
func (c *container) toBitset() {
	bits := c.bits
	if cap(bits) < bitsetWords {
		bits = make([]uint64, bitsetWords)
	} else {
		bits = bits[:bitsetWords]
		clear(bits)
	}
	for _, v := range c.arr {
		bits[v>>6] |= uint64(1) << (v & 63)
	}
	c.typ = bitsetT
	c.bits = bits
	c.arr = c.arr[:0]
}

// runToBitset expands a run container to a bitset.
func (c *container) runToBitset() {
	runs := c.arr
	bits := c.bits
	if cap(bits) < bitsetWords {
		bits = make([]uint64, bitsetWords)
	} else {
		bits = bits[:bitsetWords]
		clear(bits)
	}
	for r := 0; r+1 < len(runs); r += 2 {
		setRange(bits, uint32(runs[r]), uint32(runs[r+1]))
	}
	c.typ = bitsetT
	c.bits = bits
	c.arr = c.arr[:0]
}

// runToArray expands a run container to a sorted array.
func (c *container) runToArray() {
	runs := c.arr
	out := make([]uint16, 0, c.n)
	for r := 0; r+1 < len(runs); r += 2 {
		for v := uint32(runs[r]); v <= uint32(runs[r+1]); v++ {
			out = append(out, uint16(v))
		}
	}
	c.typ = arrayT
	c.arr = out
}

// bitsetToArray demotes a bitset container to a sorted array.
func (c *container) bitsetToArray() {
	arr := c.arr
	if cap(arr) < int(c.n) {
		arr = make([]uint16, 0, c.n)
	} else {
		arr = arr[:0]
	}
	for w, word := range c.bits {
		for word != 0 {
			arr = append(arr, uint16(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	c.typ = arrayT
	c.arr = arr
	c.bits = c.bits[:0]
}

// setRange sets the inclusive bit range [lo, hi] in a bitset payload.
func setRange(bits []uint64, lo, hi uint32) {
	wlo, whi := lo>>6, hi>>6
	mlo := ^uint64(0) << (lo & 63)
	mhi := ^uint64(0) >> (63 - hi&63)
	if wlo == whi {
		bits[wlo] |= mlo & mhi
		return
	}
	bits[wlo] |= mlo
	for w := wlo + 1; w < whi; w++ {
		bits[w] = ^uint64(0)
	}
	bits[whi] |= mhi
}

// searchU16 returns the first index i with a[i] >= v.
func searchU16(a []uint16, v uint16) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchRuns returns the index of the run pair containing v, or -1.
func searchRuns(runs []uint16, v uint16) int {
	lo, hi := 0, len(runs)/2
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case runs[2*mid+1] < v:
			lo = mid + 1
		case runs[2*mid] > v:
			hi = mid
		default:
			return 2 * mid
		}
	}
	return -1
}
