package stats

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
)

// This file is the package's one sort kernel: a stable LSD radix sort over
// uint64 keys, digitBits bits per pass. Floats sort through an
// order-preserving key; integers through a sign-flipped one.
//
// Bit-identity: an ascending multiset of float64s holds exactly one bit
// pattern unless it contains a NaN (unordered) or −0 (equal to +0 but with
// other bits), which is why every float entry point declines to the
// comparison sort on those. Ranks group equal values, so any order that is
// ascending with ties adjacent yields the same rank vector.

const signBit = 1 << 63

// The kernel sorts digitBits bits per pass.
const (
	digitBits = 11
	digitMask = 1<<digitBits - 1
)

// floatKey maps v to a uint64 whose unsigned order is v's numeric order
// (for non-NaN v; −0 orders strictly before +0).
func floatKey(v float64) uint64 {
	b := math.Float64bits(v)
	if b&signBit != 0 {
		return ^b
	}
	return b | signBit
}

// keyFloat inverts floatKey.
func keyFloat(k uint64) float64 {
	if k&signBit != 0 {
		return math.Float64frombits(k &^ signBit)
	}
	return math.Float64frombits(^k)
}

// floatKeys returns the keys of x, or ok=false when x holds a NaN or −0.
func floatKeys(x []float64) (keys []uint64, ok bool) {
	keys = make([]uint64, len(x))
	for i, v := range x {
		if v != v || (v == 0 && math.Signbit(v)) {
			return nil, false
		}
		keys[i] = floatKey(v)
	}
	return keys, true
}

// radixScratch is radixSort's working storage: a digit histogram per pass
// and the ping-pong buffers for keys and perm. It is pooled, so repeated
// sorts reuse it instead of allocating it afresh. The buffers stay in the
// pool only up to radixPoolMax elements: a larger sort allocates its own,
// so the pool never holds a buffer the size of a whole-corpus column
// between sorts.
type radixScratch struct {
	counts [][1 << digitBits]int
	keys   []uint64
	perm   []int32
}

const radixPoolMax = 1 << 13

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// radixSort sorts keys ascending by their bits from bit `from` up, in
// place, and, when perm is non-nil, applies the same moves to perm. It is
// stable, so keys equal in those bits keep their relative order. A first
// pass finds the digits on which keys differ; the rest are skipped, so
// small integer keys cost a pass or two.
func radixSort(keys []uint64, perm []int32, from uint) {
	n := len(keys)
	if n < 2 {
		return
	}
	or, and := uint64(0), ^uint64(0)
	for _, k := range keys {
		or |= k
		and &= k
	}
	var digits []uint
	for d := from; d < 64; d += digitBits {
		if ((or^and)>>d)&digitMask != 0 {
			digits = append(digits, d)
		}
	}
	if len(digits) == 0 {
		return
	}
	sc := radixPool.Get().(*radixScratch)
	defer radixPool.Put(sc)
	counts := scratch(&sc.counts, len(digits))
	clear(counts)
	for _, k := range keys {
		for i, d := range digits {
			counts[i][(k>>d)&digitMask]++
		}
	}
	bufK := scratch(&sc.keys, n)
	var bufP []int32
	if perm != nil {
		bufP = scratch(&sc.perm, n)
	}
	src, srcP, dst, dstP := keys, perm, bufK, bufP
	for i, shift := range digits {
		var off [1 << digitBits]int
		sum := 0
		for b, cnt := range &counts[i] {
			off[b] = sum
			sum += cnt
		}
		if perm == nil {
			for _, k := range src {
				b := (k >> shift) & digitMask
				dst[off[b]] = k
				off[b]++
			}
		} else {
			for j, k := range src {
				b := (k >> shift) & digitMask
				dst[off[b]] = k
				dstP[off[b]] = srcP[j]
				off[b]++
			}
		}
		src, srcP, dst, dstP = dst, dstP, src, srcP
	}
	if len(digits)%2 == 1 {
		copy(keys, src)
		copy(perm, srcP)
	}
}

// scratch returns an n-element buffer with unspecified contents: *pooled,
// reallocated only when its capacity is short, when n is at most
// radixPoolMax, else a fresh allocation the pool does not keep.
func scratch[T any](pooled *[]T, n int) []T {
	if n > radixPoolMax {
		return make([]T, n)
	}
	if cap(*pooled) < n {
		*pooled = make([]T, n)
	}
	*pooled = (*pooled)[:n]
	return *pooled
}

// SortFloat64s sorts x ascending in place, leaving the same bits that
// sort.Float64s leaves. Inputs with a NaN or −0 go to sort.Float64s
// itself; every other input takes the radix kernel.
func SortFloat64s(x []float64) {
	keys, ok := floatKeys(x)
	if !ok {
		sort.Float64s(x)
		return
	}
	radixSort(keys, nil, 0)
	for i, k := range keys {
		x[i] = keyFloat(k)
	}
}

// SortByKey reorders perm stably so that key[perm[i]] ascends: rows with
// equal keys keep their current relative order. Sorting by a secondary key
// first and a primary key second therefore orders by (primary, secondary),
// the LSD composition. When the keys span less than 2³² the key offset and
// the row pack into one word, so the sort moves one array.
func SortByKey[K int32 | int64](perm []int32, key []K) {
	if len(perm) < 2 {
		return
	}
	lo, hi := int64(key[perm[0]]), int64(key[perm[0]])
	for _, r := range perm {
		k := int64(key[r])
		lo, hi = min(lo, k), max(hi, k)
	}
	switch {
	case lo == hi:
		return
	case uint64(hi)-uint64(lo) < 1<<32:
		packed := make([]uint64, len(perm))
		for i, r := range perm {
			packed[i] = (uint64(int64(key[r]))-uint64(lo))<<32 | uint64(uint32(r))
		}
		radixSort(packed, nil, 32)
		for i, p := range packed {
			perm[i] = int32(uint32(p))
		}
	default:
		keys := make([]uint64, len(perm))
		for i, r := range perm {
			keys[i] = uint64(int64(key[r])) ^ signBit
		}
		radixSort(keys, perm, 0)
	}
}

// KeyOrder returns the rows 0..len(key)-1 in the stable ascending order of
// key: SortByKey applied to the identity permutation.
func KeyOrder[K int32 | int64](key []K) []int32 {
	perm := iota32(len(key))
	SortByKey(perm, key)
	return perm
}

// RanksSorted returns the fractional ranks (average rank for ties,
// 1-based) of a series, given order, a permutation of its indices, and
// sorted, the series' values in that order, ascending: r[order[k]] is the
// rank of sorted[k]'s tie group. The result equals Ranks of the series.
// sorted must hold no NaN.
func RanksSorted(order []int32, sorted []float64) []float64 {
	n := len(order)
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && sorted[j+1] == sorted[i] {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			r[order[k]] = avg
		}
		i = j + 1
	}
	return r
}

// Ranks returns the fractional ranks of x (average rank for ties,
// 1-based), the rank vector Spearman correlates.
func Ranks(x []float64) []float64 {
	keys, ok := floatKeys(x)
	if !ok {
		return ranksPairSort(x)
	}
	order := iota32(len(x))
	radixSort(keys, order, 0)
	return RanksSorted(order, fromKeys(keys))
}

// selectNth reorders keys so that keys[k] is the k-th smallest (0-based),
// none smaller after it and none larger before it, and returns it: Hoare's
// quickselect with median-of-three pivots. A range still open after
// 2·log₂n + 8 partitions is radix-sorted instead, which bounds the worst
// case.
func selectNth(keys []uint64, k int) uint64 {
	lo, hi := 0, len(keys)-1
	for budget := 2*bits.Len(uint(len(keys))) + 8; lo < hi; budget-- {
		if budget == 0 {
			radixSort(keys[lo:hi+1], nil, 0)
			break
		}
		a, b, c := keys[lo], keys[lo+(hi-lo)/2], keys[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for keys[i] < pivot {
				i++
			}
			for keys[j] > pivot {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		// keys[lo..j] ≤ pivot, keys[i..hi] ≥ pivot, and any between equal it.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return keys[k]
		}
	}
	return keys[k]
}

// SortOrder sorts x once and returns the stable ascending order of its
// indices and x ascending; sorted carries the same bits as sorting a copy
// with SortFloat64s. On a NaN or −0, sorted comes from SortFloat64s and
// order from a stable comparison sort, under which x[order[k]] ==
// sorted[k] numerically, so RanksSorted(order, sorted) still equals Ranks(x)
// when x holds no NaN.
func SortOrder(x []float64) (order []int32, sorted []float64) {
	order = iota32(len(x))
	keys, ok := floatKeys(x)
	if !ok {
		slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(x[a], x[b]) })
		return order, sortedCopy(x)
	}
	radixSort(keys, order, 0)
	return order, fromKeys(keys)
}

// fromKeys decodes float keys into a new slice.
func fromKeys(keys []uint64) []float64 {
	x := make([]float64, len(keys))
	for i, k := range keys {
		x[i] = keyFloat(k)
	}
	return x
}

// iota32 returns the identity permutation 0..n-1.
func iota32(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	return p
}
