package stats

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fuzzSpecials are the values the sort kernel must decline or place
// exactly: both zeros, NaN, both infinities, subnormals and the extremes.
var fuzzSpecials = [16]float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, 1, -1, 1e300, -1e-300,
}

// fuzzSample decodes each byte into one value: the first 16 byte values
// pick a special, the rest a multiple of 0.25 in [−30, 30) — negatives,
// many distinct values and heavy repeats.
func fuzzSample(data []byte) []float64 {
	x := make([]float64, len(data))
	for i, b := range data {
		if b < 16 {
			x[i] = fuzzSpecials[b]
		} else {
			x[i] = float64(int(b)-136) * 0.25
		}
	}
	return x
}

// sameBits reports whether a and b hold the same float bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSortAndRanks requires SortFloat64s and SortOrder to leave
// sort.Float64s' bits, SortOrder's order to lead to its sorted series, and
// Ranks (and, without NaN, RanksSorted over SortOrder) to equal the
// pair-sort ranks, bit for bit.
func checkSortAndRanks(t *testing.T, x []float64) {
	t.Helper()
	want := append([]float64(nil), x...)
	sort.Float64s(want)
	got := append([]float64(nil), x...)
	SortFloat64s(got)
	if !sameBits(got, want) {
		t.Fatalf("SortFloat64s(%v) = %v, sort.Float64s %v", x, got, want)
	}
	wantR := ranksPairSort(x)
	if r := Ranks(x); !sameBits(r, wantR) {
		t.Fatalf("Ranks(%v) = %v, pair sort %v", x, r, wantR)
	}
	order, sorted := SortOrder(x)
	if !sameBits(sorted, want) {
		t.Fatalf("SortOrder(%v) sorted %v, want %v", x, sorted, want)
	}
	seen := make([]bool, len(x))
	hasNaN := false
	for k, i := range order {
		nan := x[i] != x[i]
		hasNaN = hasNaN || nan
		if seen[i] || !(x[i] == sorted[k] || nan && sorted[k] != sorted[k]) {
			t.Fatalf("SortOrder(%v) order %v does not lead to %v", x, order, sorted)
		}
		seen[i] = true
	}
	if r := RanksSorted(order, sorted); !hasNaN && !sameBits(r, wantR) {
		t.Fatalf("RanksSorted over SortOrder(%v) = %v, pair sort %v", x, r, wantR)
	}
	if len(x) == 0 {
		return
	}
	for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.95, 0.99, 1} {
		q, err := Quantile(x, p)
		if want := QuantileSorted(want, p); err != nil || math.Float64bits(q) != math.Float64bits(want) {
			t.Fatalf("Quantile(%v, %v) = %v, %v; sorted %v", x, p, q, err, want)
		}
	}
}

// TestSelectNthPatterns checks quickselect on the inputs that defeat naive
// pivots — sorted, reversed, constant, organ-pipe, sawtooth — at every
// rank.
func TestSelectNthPatterns(t *testing.T) {
	const n = 257
	patterns := map[string]func(i int) uint64{
		"sorted":     func(i int) uint64 { return uint64(i) },
		"reversed":   func(i int) uint64 { return uint64(n - i) },
		"constant":   func(i int) uint64 { return 7 },
		"organ-pipe": func(i int) uint64 { return uint64(min(i, n-i)) },
		"sawtooth":   func(i int) uint64 { return uint64(i % 5) },
	}
	for name, f := range patterns {
		want := make([]uint64, n)
		for i := range want {
			want[i] = f(i)
		}
		slices.Sort(want)
		for k := 0; k < n; k++ {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = f(i)
			}
			if got := selectNth(keys, k); got != want[k] {
				t.Fatalf("%s: selectNth(k=%d) = %d, want %d", name, k, got, want[k])
			}
		}
	}
}

// TestSortKernelMatchesComparisonSort covers every radix digit: wide
// random magnitudes of both signs, integers that differ only in low bytes,
// heavy ties, a single value, and inputs with NaN or −0 that decline.
func TestSortKernelMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	gens := map[string]func() float64{
		"wide":     func() float64 { return math.Float64frombits(rng.Uint64()&^(0x7ff<<52) | uint64(rng.Intn(2046)+1)<<52) },
		"normal":   func() float64 { return rng.NormFloat64() * 1e6 },
		"ints":     func() float64 { return float64(rng.Intn(1 << 20)) },
		"ties":     func() float64 { return float64(rng.Intn(40)) - 20 },
		"constant": func() float64 { return 3.5 },
		"specials": func() float64 { return fuzzSpecials[rng.Intn(len(fuzzSpecials))] },
		"signed0":  func() float64 { return float64(rng.Intn(30)) * math.Copysign(0, -1) },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 17, 1000, 70000} {
			x := make([]float64, n)
			for i := range x {
				x[i] = gen()
			}
			t.Run(name, func(t *testing.T) { checkSortAndRanks(t, x) })
		}
	}
}

// TestSortByKeyMatchesStableSort checks the LSD composition against a
// stable comparison sort: rows by (user, submit) with ties left in the
// starting order, over negative, wide and tied keys.
func TestSortByKeyMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 5, 3000, 2999} {
		user := make([]int32, n)
		submit := make([]int64, n)
		for i := range user {
			user[i] = int32(rng.Intn(7)) - 3
			submit[i] = rng.Int63n(50) - 25
			switch {
			case n == 3000 && i%11 == 0:
				submit[i] = rng.Int63() - rng.Int63()
			case n == 2999:
				// A span just over 32 bits: too wide to pack.
				submit[i] = rng.Int63n(1<<34) - 1<<33
			}
		}
		perm := iota32(n)
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		want := slices.Clone(perm)
		slices.SortStableFunc(want, func(a, b int32) int {
			if user[a] != user[b] {
				return int(user[a]) - int(user[b])
			}
			switch {
			case submit[a] < submit[b]:
				return -1
			case submit[a] > submit[b]:
				return 1
			}
			return 0
		})
		SortByKey(perm, submit)
		SortByKey(perm, user)
		if !slices.Equal(perm, want) {
			t.Fatalf("n=%d: SortByKey order %v, stable sort %v", n, perm, want)
		}
		byRow := iota32(n)
		slices.SortStableFunc(byRow, func(a, b int32) int { return cmp.Compare(submit[a], submit[b]) })
		if got := KeyOrder(submit); !slices.Equal(got, byRow) {
			t.Fatalf("n=%d: KeyOrder %v, stable sort %v", n, got, byRow)
		}
	}
}

// TestRanksSortedAnyTieOrder checks that ranks from an order depend only
// on the values: reversing the rows inside each tie changes nothing.
func TestRanksSortedAnyTieOrder(t *testing.T) {
	x := []float64{3, 1, 3, 2, 1, 3, 0, 2}
	sorted := []float64{0, 1, 1, 2, 2, 3, 3, 3}
	a := []int32{6, 1, 4, 3, 7, 0, 2, 5}
	b := []int32{6, 4, 1, 7, 3, 5, 2, 0}
	if ra, rb := RanksSorted(a, sorted), RanksSorted(b, sorted); !sameBits(ra, rb) || !sameBits(ra, ranksPairSort(x)) {
		t.Fatalf("RanksSorted: %v vs %v vs pair sort %v", ra, rb, ranksPairSort(x))
	}
}

func FuzzSortFloat64s(f *testing.F) {
	f.Add([]byte{0, 1, 17, 200, 200, 3, 4})
	f.Add([]byte{2, 2, 100, 16, 255})
	f.Add([]byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		x := fuzzSample(data)
		want := append([]float64(nil), x...)
		sort.Float64s(want)
		SortFloat64s(x)
		if !sameBits(x, want) {
			t.Fatalf("SortFloat64s = %v, sort.Float64s %v", x, want)
		}
	})
}

func FuzzRanks(f *testing.F) {
	f.Add([]byte{0, 1, 17, 200, 200, 3, 4})
	f.Add([]byte{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22, 23})
	f.Add([]byte("heavy ties heavy ties heavy ties"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSortAndRanks(t, fuzzSample(data))
	})
}
