package bitmap

import (
	"math/bits"
	"slices"
)

// And, Or and AndNot write the combination of a and b into the receiver,
// which must be a different bitmap from both operands. The receiver's
// container storage is reused, so evaluating a predicate tree over scratch
// bitmaps is allocation-free once the scratch capacity is warm. Results
// keep canonical container forms: bitset results at or below the array
// cutoff demote to arrays; run containers appear only where both inputs
// were runs (Optimize re-compresses when it pays).

// appendChunk appends a chunk for key (which must exceed every present
// key), reusing a previously truncated container's payload slices.
func (b *Bitmap) appendChunk(key uint16) *container {
	b.keys = append(b.keys, key)
	if n := len(b.ctrs); n < cap(b.ctrs) {
		b.ctrs = b.ctrs[:n+1]
		c := &b.ctrs[n]
		c.typ = arrayT
		c.n = 0
		c.arr = c.arr[:0]
		if c.bits != nil {
			c.bits = c.bits[:0]
		}
		return c
	}
	b.ctrs = append(b.ctrs, container{typ: arrayT})
	return &b.ctrs[len(b.ctrs)-1]
}

// dropLastChunk rolls back an appendChunk whose result came out empty.
func (b *Bitmap) dropLastChunk() {
	b.keys = b.keys[:len(b.keys)-1]
	b.ctrs = b.ctrs[:len(b.ctrs)-1]
}

// copyFrom deep-copies src into dst, reusing dst's payload capacity.
func (dst *container) copyFrom(src *container) {
	dst.typ = src.typ
	dst.n = src.n
	switch src.typ {
	case bitsetT:
		dst.bits = append(dst.bits[:0], src.bits...)
		dst.arr = dst.arr[:0]
	default:
		dst.arr = append(dst.arr[:0], src.arr...)
		if dst.bits != nil {
			dst.bits = dst.bits[:0]
		}
	}
}

// ensureBits resets dst to an all-zero bitset payload.
func (dst *container) ensureBits() {
	if cap(dst.bits) < bitsetWords {
		dst.bits = make([]uint64, bitsetWords)
	} else {
		dst.bits = dst.bits[:bitsetWords]
		clear(dst.bits)
	}
	dst.typ = bitsetT
	dst.arr = dst.arr[:0]
}

// count recomputes a bitset container's cardinality.
func (dst *container) count() {
	n := 0
	for _, w := range dst.bits {
		n += bits.OnesCount64(w)
	}
	dst.n = int32(n)
}

// demote converts a bitset result at or below the array cutoff to the
// canonical array form.
func (dst *container) demote() {
	if dst.typ == bitsetT && dst.n <= arrayCutoff {
		dst.bitsetToArray()
	}
}

// And sets dst = a ∩ b and returns dst.
func (dst *Bitmap) And(a, b *Bitmap) *Bitmap {
	dst.Clear()
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			c := dst.appendChunk(a.keys[i])
			andContainer(c, &a.ctrs[i], &b.ctrs[j])
			if c.n == 0 {
				dst.dropLastChunk()
			}
			i++
			j++
		}
	}
	return dst
}

// Or sets dst = a ∪ b and returns dst.
func (dst *Bitmap) Or(a, b *Bitmap) *Bitmap {
	dst.Clear()
	i, j := 0, 0
	for i < len(a.keys) || j < len(b.keys) {
		switch {
		case j >= len(b.keys) || (i < len(a.keys) && a.keys[i] < b.keys[j]):
			dst.appendChunk(a.keys[i]).copyFrom(&a.ctrs[i])
			i++
		case i >= len(a.keys) || a.keys[i] > b.keys[j]:
			dst.appendChunk(b.keys[j]).copyFrom(&b.ctrs[j])
			j++
		default:
			c := dst.appendChunk(a.keys[i])
			orContainer(c, &a.ctrs[i], &b.ctrs[j])
			i++
			j++
		}
	}
	return dst
}

// OrAll sets dst to the union of srcs and returns dst, which must not be
// one of srcs. Each result chunk accumulates in a bitset that every source
// container folds into once, so the cost is linear in the sources' total
// size; a chain of pairwise Or calls copies the growing result once per
// operand instead.
func (dst *Bitmap) OrAll(srcs []*Bitmap) *Bitmap {
	dst.Clear()
	var keys []uint16
	for _, s := range srcs {
		keys = append(keys, s.keys...)
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		dst.appendChunk(k).ensureBits()
	}
	for _, s := range srcs {
		j := 0
		for i, k := range s.keys {
			for dst.keys[j] != k {
				j++
			}
			orInto(dst.ctrs[j].bits, &s.ctrs[i])
		}
	}
	// Drop chunks whose sources were all empty containers.
	n := 0
	for i := range dst.ctrs {
		c := &dst.ctrs[i]
		if c.count(); c.n == 0 {
			continue
		}
		c.demote()
		dst.keys[n] = dst.keys[i]
		dst.ctrs[n], dst.ctrs[i] = dst.ctrs[i], dst.ctrs[n]
		n++
	}
	dst.keys, dst.ctrs = dst.keys[:n], dst.ctrs[:n]
	return dst
}

// AndNot sets dst = a − b and returns dst.
func (dst *Bitmap) AndNot(a, b *Bitmap) *Bitmap {
	dst.Clear()
	j := 0
	for i := 0; i < len(a.keys); i++ {
		for j < len(b.keys) && b.keys[j] < a.keys[i] {
			j++
		}
		c := dst.appendChunk(a.keys[i])
		if j < len(b.keys) && b.keys[j] == a.keys[i] {
			andNotContainer(c, &a.ctrs[i], &b.ctrs[j])
			if c.n == 0 {
				dst.dropLastChunk()
			}
		} else {
			c.copyFrom(&a.ctrs[i])
		}
	}
	return dst
}

// andContainer intersects two containers into dst.
//
//mira:hotpath
func andContainer(dst, a, b *container) {
	// Normalize so the denser representative comes second where it helps.
	switch {
	case a.typ == arrayT && b.typ == arrayT:
		andArrArr(dst, a.arr, b.arr)
	case a.typ == arrayT && b.typ == bitsetT:
		andArrBits(dst, a.arr, b.bits)
	case a.typ == bitsetT && b.typ == arrayT:
		andArrBits(dst, b.arr, a.bits)
	case a.typ == arrayT && b.typ == runT:
		andArrRuns(dst, a.arr, b.arr)
	case a.typ == runT && b.typ == arrayT:
		andArrRuns(dst, b.arr, a.arr)
	case a.typ == bitsetT && b.typ == bitsetT:
		dst.ensureBits()
		for w := range dst.bits {
			dst.bits[w] = a.bits[w] & b.bits[w]
		}
		dst.count()
		dst.demote()
	case a.typ == runT && b.typ == runT:
		andRunsRuns(dst, a.arr, b.arr)
	case a.typ == runT && b.typ == bitsetT:
		andRunsBits(dst, a.arr, b.bits)
	default: // bitsetT ∩ runT
		andRunsBits(dst, b.arr, a.bits)
	}
}

func andArrArr(dst *container, a, b []uint16) {
	out := dst.arr[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	dst.setArr(out)
}

func andArrBits(dst *container, a []uint16, bs []uint64) {
	out := dst.arr[:0]
	for _, v := range a {
		if bs[v>>6]&(uint64(1)<<(v&63)) != 0 {
			out = append(out, v)
		}
	}
	dst.setArr(out)
}

func andArrRuns(dst *container, a, runs []uint16) {
	out := dst.arr[:0]
	r := 0
	for _, v := range a {
		for r+1 < len(runs) && runs[r+1] < v {
			r += 2
		}
		if r+1 < len(runs) && runs[r] <= v {
			out = append(out, v)
		}
	}
	dst.setArr(out)
}

func andRunsRuns(dst *container, a, b []uint16) {
	out := dst.arr[:0]
	n := int32(0)
	i, j := 0, 0
	for i+1 < len(a) && j+1 < len(b) {
		lo := a[i]
		if b[j] > lo {
			lo = b[j]
		}
		hi := a[i+1]
		if b[j+1] < hi {
			hi = b[j+1]
		}
		if lo <= hi {
			out = append(out, lo, hi)
			n += int32(hi) - int32(lo) + 1
		}
		if a[i+1] < b[j+1] {
			i += 2
		} else {
			j += 2
		}
	}
	dst.typ = runT
	dst.arr = out
	dst.n = n
	if dst.bits != nil {
		dst.bits = dst.bits[:0]
	}
}

func andRunsBits(dst *container, runs []uint16, bs []uint64) {
	dst.ensureBits()
	for r := 0; r+1 < len(runs); r += 2 {
		lo, hi := uint32(runs[r]), uint32(runs[r+1])
		wlo, whi := lo>>6, hi>>6
		mlo := ^uint64(0) << (lo & 63)
		mhi := ^uint64(0) >> (63 - hi&63)
		if wlo == whi {
			dst.bits[wlo] |= bs[wlo] & mlo & mhi
			continue
		}
		dst.bits[wlo] |= bs[wlo] & mlo
		for w := wlo + 1; w < whi; w++ {
			dst.bits[w] = bs[w]
		}
		dst.bits[whi] |= bs[whi] & mhi
	}
	dst.count()
	dst.demote()
}

// setArr finalizes an array-typed result.
func (dst *container) setArr(out []uint16) {
	dst.typ = arrayT
	dst.arr = out
	dst.n = int32(len(out))
	if dst.bits != nil {
		dst.bits = dst.bits[:0]
	}
}

// orContainer unions two containers into dst.
//
//mira:hotpath
func orContainer(dst, a, b *container) {
	switch {
	case a.typ == arrayT && b.typ == arrayT:
		orArrArr(dst, a.arr, b.arr)
	case a.typ == runT && b.typ == runT:
		orRunsRuns(dst, a.arr, b.arr)
	default:
		// Mixed or bitset-heavy: materialize into a bitset and demote.
		dst.ensureBits()
		orInto(dst.bits, a)
		orInto(dst.bits, b)
		dst.count()
		dst.demote()
	}
}

// orInto folds one container into a bitset payload.
func orInto(bs []uint64, c *container) {
	switch c.typ {
	case arrayT:
		for _, v := range c.arr {
			bs[v>>6] |= uint64(1) << (v & 63)
		}
	case bitsetT:
		for w := range bs {
			bs[w] |= c.bits[w]
		}
	default: // runT
		for r := 0; r+1 < len(c.arr); r += 2 {
			setRange(bs, uint32(c.arr[r]), uint32(c.arr[r+1]))
		}
	}
}

func orArrArr(dst *container, a, b []uint16) {
	out := dst.arr[:0]
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	dst.setArr(out)
	if dst.n > arrayCutoff {
		dst.toBitset()
	}
}

func orRunsRuns(dst *container, a, b []uint16) {
	out := dst.arr[:0]
	n := int32(0)
	i, j := 0, 0
	var curLo, curHi int32 = -1, -1
	flush := func() {
		if curLo >= 0 {
			out = append(out, uint16(curLo), uint16(curHi))
			n += curHi - curLo + 1
		}
	}
	for i+1 < len(a) || j+1 < len(b) {
		var lo, hi int32
		if j+1 >= len(b) || (i+1 < len(a) && a[i] <= b[j]) {
			lo, hi = int32(a[i]), int32(a[i+1])
			i += 2
		} else {
			lo, hi = int32(b[j]), int32(b[j+1])
			j += 2
		}
		if curLo < 0 {
			curLo, curHi = lo, hi
		} else if lo <= curHi+1 {
			if hi > curHi {
				curHi = hi
			}
		} else {
			flush()
			curLo, curHi = lo, hi
		}
	}
	flush()
	dst.typ = runT
	dst.arr = out
	dst.n = n
	if dst.bits != nil {
		dst.bits = dst.bits[:0]
	}
}

// andNotContainer subtracts b from a into dst.
//
//mira:hotpath
func andNotContainer(dst, a, b *container) {
	switch {
	case a.typ == arrayT && b.typ == arrayT:
		andNotArrArr(dst, a.arr, b.arr)
	case a.typ == arrayT && b.typ == bitsetT:
		out := dst.arr[:0]
		for _, v := range a.arr {
			if b.bits[v>>6]&(uint64(1)<<(v&63)) == 0 {
				out = append(out, v)
			}
		}
		dst.setArr(out)
	case a.typ == arrayT && b.typ == runT:
		out := dst.arr[:0]
		r := 0
		for _, v := range a.arr {
			for r+1 < len(b.arr) && b.arr[r+1] < v {
				r += 2
			}
			if !(r+1 < len(b.arr) && b.arr[r] <= v) {
				out = append(out, v)
			}
		}
		dst.setArr(out)
	default:
		// a is bitset or run: materialize a as a bitset, then clear b.
		dst.ensureBits()
		orInto(dst.bits, a)
		switch b.typ {
		case arrayT:
			for _, v := range b.arr {
				dst.bits[v>>6] &^= uint64(1) << (v & 63)
			}
		case bitsetT:
			for w := range dst.bits {
				dst.bits[w] &^= b.bits[w]
			}
		default: // runT
			for r := 0; r+1 < len(b.arr); r += 2 {
				clearRange(dst.bits, uint32(b.arr[r]), uint32(b.arr[r+1]))
			}
		}
		dst.count()
		dst.demote()
	}
}

func andNotArrArr(dst *container, a, b []uint16) {
	out := dst.arr[:0]
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j >= len(b) || b[j] != v {
			out = append(out, v)
		}
	}
	dst.setArr(out)
}

// clearRange clears the inclusive bit range [lo, hi] in a bitset payload.
func clearRange(bs []uint64, lo, hi uint32) {
	wlo, whi := lo>>6, hi>>6
	mlo := ^uint64(0) << (lo & 63)
	mhi := ^uint64(0) >> (63 - hi&63)
	if wlo == whi {
		bs[wlo] &^= mlo & mhi
		return
	}
	bs[wlo] &^= mlo
	for w := wlo + 1; w < whi; w++ {
		bs[w] = 0
	}
	bs[whi] &^= mhi
}
