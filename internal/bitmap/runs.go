package bitmap

import "math/bits"

// Run is a half-open interval [Lo, Hi) of selected row ids. The scan
// engine consumes selections as runs: each run becomes one ProcessBlock
// call on the masked kernels, so a block whose selection is one full run
// costs exactly what the unmasked scan costs.
type Run struct {
	Lo, Hi int32
}

// appendRun appends [lo, hi) to dst, merging with the previous run when
// adjacent.
func appendRun(dst []Run, lo, hi int32) []Run {
	if n := len(dst); n > 0 && dst[n-1].Hi == lo {
		dst[n-1].Hi = hi
		return dst
	}
	return append(dst, Run{lo, hi})
}

// AppendBlockRuns appends the maximal runs of set values within the
// half-open row range [lo, hi) to dst and returns it. The caller owns dst
// and reuses it across blocks, so the warm path allocates nothing. An
// empty result means the block can be skipped; a single run spanning
// [lo, hi) means the block is fully selected.
//
// The scan engine's 2048-row blocks never straddle a 65536-value chunk
// (2048 divides 65536 and every block lies within one 2048-row cell of
// the grid, though a shard's first block may start mid-cell), so the
// chunk loop below runs at most once per block; the code still handles
// arbitrary ranges for other callers.
//
//mira:hotpath
func (b *Bitmap) AppendBlockRuns(dst []Run, lo, hi int) []Run {
	if lo >= hi {
		return dst
	}
	loKey := uint16(uint32(lo) >> 16)
	i, _ := b.chunkIndex(loKey)
	for ; i < len(b.keys); i++ {
		base := int(b.keys[i]) << 16
		if base >= hi {
			break
		}
		clo, chi := lo, hi // clip to this chunk
		if clo < base {
			clo = base
		}
		if top := base + 1<<16; chi > top {
			chi = top
		}
		c := &b.ctrs[i]
		l16, h16 := uint16(clo-base), uint16(chi-base-1) // inclusive low bits
		switch c.typ {
		case arrayT:
			j := searchU16(c.arr, l16)
			for ; j < len(c.arr) && c.arr[j] <= h16; j++ {
				v := int32(base) + int32(c.arr[j])
				dst = appendRun(dst, v, v+1)
			}
		case bitsetT:
			dst = appendBitsetRuns(dst, c.bits, int32(base), uint32(l16), uint32(h16))
		default: // runT
			for r := 0; r+1 < len(c.arr); r += 2 {
				rlo, rhi := c.arr[r], c.arr[r+1]
				if rlo > h16 {
					break
				}
				if rhi < l16 {
					continue
				}
				if rlo < l16 {
					rlo = l16
				}
				if rhi > h16 {
					rhi = h16
				}
				dst = appendRun(dst, int32(base)+int32(rlo), int32(base)+int32(rhi)+1)
			}
		}
	}
	return dst
}

// appendBitsetRuns extracts the runs of a bitset payload within the
// inclusive low-bit range [lo, hi].
//
//mira:hotpath
func appendBitsetRuns(dst []Run, bs []uint64, base int32, lo, hi uint32) []Run {
	wlo, whi := lo>>6, hi>>6
	for w := wlo; w <= whi; w++ {
		word := bs[w]
		if w == wlo {
			word &= ^uint64(0) << (lo & 63)
		}
		if w == whi {
			word &= ^uint64(0) >> (63 - hi&63)
		}
		for word != 0 {
			t := bits.TrailingZeros64(word)
			l := bits.TrailingZeros64(^(word >> uint(t)))
			start := base + int32(w<<6) + int32(t)
			dst = appendRun(dst, start, start+int32(l))
			word &^= (uint64(1)<<uint(l) - 1) << uint(t)
		}
	}
	return dst
}
