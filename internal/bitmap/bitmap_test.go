package bitmap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refSet is the reference model: a plain map of set values.
type refSet map[uint32]bool

func (r refSet) sorted() []uint32 {
	out := make([]uint32, 0, len(r))
	for v := range r {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func fromRef(r refSet) *Bitmap {
	b := New()
	for _, v := range r.sorted() {
		b.Add(v)
	}
	return b
}

// checkEqual verifies b against the reference through every read API.
func checkEqual(t *testing.T, name string, b *Bitmap, r refSet) {
	t.Helper()
	want := r.sorted()
	if got := b.Cardinality(); got != len(want) {
		t.Fatalf("%s: Cardinality = %d, want %d", name, got, len(want))
	}
	var got []uint32
	b.Iterate(func(x uint32) bool {
		got = append(got, x)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("%s: Iterate yielded %d values, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Iterate[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
	if len(want) > 0 {
		if min, ok := b.Minimum(); !ok || min != want[0] {
			t.Fatalf("%s: Minimum = %d,%v, want %d", name, min, ok, want[0])
		}
		if max, ok := b.Maximum(); !ok || max != want[len(want)-1] {
			t.Fatalf("%s: Maximum = %d,%v, want %d", name, max, ok, want[len(want)-1])
		}
	} else if _, ok := b.Minimum(); ok {
		t.Fatalf("%s: Minimum ok on empty bitmap", name)
	}
}

// checkContains probes Contains at and around reference values.
func checkContains(t *testing.T, name string, b *Bitmap, r refSet, probes []uint32) {
	t.Helper()
	for _, p := range probes {
		if got, exp := b.Contains(p), r[p]; got != exp {
			t.Fatalf("%s: Contains(%d) = %v, want %v", name, p, got, exp)
		}
	}
}

// boundaryValues are the container-seam cases: chunk 0 start/end, chunk 1
// start, and values around the array→bitset cutoff region.
var boundaryValues = []uint32{0, 1, 63, 64, 65535, 65536, 65537, 131071, 131072, 1<<20 - 1, 1 << 20}

func probesFor(r refSet, rng *rand.Rand) []uint32 {
	probes := append([]uint32(nil), boundaryValues...)
	for v := range r {
		probes = append(probes, v)
		if v > 0 {
			probes = append(probes, v-1)
		}
		probes = append(probes, v+1)
		if len(probes) > 4000 {
			break
		}
	}
	for i := 0; i < 64; i++ {
		probes = append(probes, rng.Uint32()%(1<<21))
	}
	return probes
}

func TestBoundaries(t *testing.T) {
	r := refSet{}
	b := New()
	for _, v := range boundaryValues {
		b.Add(v)
		r[v] = true
	}
	checkEqual(t, "boundaries", b, r)
	checkContains(t, "boundaries", b, r, probesFor(r, rand.New(rand.NewSource(1))))
}

// TestPromotionDemotion drives one chunk across all three container types:
// array → bitset (past the cutoff via Add), bitset → run (Optimize over a
// contiguous range), run → bitset (mutation), and bitset → array (Optimize
// after sparsification is impossible here, so a fresh sparse chunk checks
// the array arm).
func TestPromotionDemotion(t *testing.T) {
	b := New()
	r := refSet{}
	// Fill past the cutoff with even values: stays incompressible by runs.
	for v := uint32(0); v < 2*arrayCutoff+10; v += 2 {
		b.Add(v)
		r[v] = true
	}
	if b.ctrs[0].typ != bitsetT {
		t.Fatalf("after %d adds container type = %d, want bitset", arrayCutoff+5, b.ctrs[0].typ)
	}
	checkEqual(t, "promoted", b, r)
	b.Optimize()
	if b.ctrs[0].typ != bitsetT {
		t.Fatalf("Optimize demoted an incompressible bitset to %d", b.ctrs[0].typ)
	}

	// A dense contiguous range optimizes to a run container.
	b2 := New()
	r2 := refSet{}
	b2.AddRange(100, 70000)
	for v := uint32(100); v < 70000; v++ {
		r2[v] = true
	}
	b2.Optimize()
	if b2.ctrs[0].typ != runT || b2.ctrs[1].typ != runT {
		t.Fatalf("contiguous range containers = %d,%d, want run,run", b2.ctrs[0].typ, b2.ctrs[1].typ)
	}
	checkEqual(t, "runrange", b2, r2)

	// Mutating a run container falls back to bitset, preserving contents.
	b2.Add(50)
	r2[50] = true
	checkEqual(t, "runmutate", b2, r2)

	// Optimize demotes a small bitset to an array.
	b3 := New()
	r3 := refSet{}
	for v := uint32(0); v < 300; v += 3 {
		b3.Add(v)
		r3[v] = true
	}
	b3.ctrs[0].toBitset()
	b3.Optimize()
	if b3.ctrs[0].typ != arrayT {
		t.Fatalf("small bitset optimized to %d, want array", b3.ctrs[0].typ)
	}
	checkEqual(t, "demoted", b3, r3)
}

// randomRef builds a reference set from one of several shapes so the
// property tests exercise all container types and their seams.
func randomRef(rng *rand.Rand) refSet {
	r := refSet{}
	switch rng.Intn(4) {
	case 0: // sparse
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			r[rng.Uint32()%(1<<18)] = true
		}
	case 1: // dense chunk (drives bitset)
		base := uint32(rng.Intn(3)) << 16
		n := 3000 + rng.Intn(6000)
		for i := 0; i < n; i++ {
			r[base+rng.Uint32()%(1<<16)] = true
		}
	case 2: // runs (drives run containers)
		for k := 0; k < 5; k++ {
			lo := rng.Uint32() % (1 << 18)
			span := uint32(1 + rng.Intn(5000))
			for v := lo; v < lo+span; v++ {
				r[v] = true
			}
		}
	case 3: // boundary-heavy
		for _, v := range boundaryValues {
			if rng.Intn(2) == 0 {
				r[v] = true
			}
		}
		for i := 0; i < 50; i++ {
			r[65530+rng.Uint32()%12] = true
		}
	}
	return r
}

func refOp(op int, a, b refSet) refSet {
	out := refSet{}
	switch op {
	case 0: // and
		for v := range a {
			if b[v] {
				out[v] = true
			}
		}
	case 1: // or
		for v := range a {
			out[v] = true
		}
		for v := range b {
			out[v] = true
		}
	default: // andnot
		for v := range a {
			if !b[v] {
				out[v] = true
			}
		}
	}
	return out
}

func TestOpsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := []string{"and", "or", "andnot"}
	dst := New()
	for trial := 0; trial < 60; trial++ {
		ra, rb := randomRef(rng), randomRef(rng)
		ba, bb := fromRef(ra), fromRef(rb)
		if trial%2 == 1 {
			// Exercise the Optimize'd (run-containing) forms too.
			ba.Optimize()
			bb.Optimize()
		}
		for op := 0; op < 3; op++ {
			want := refOp(op, ra, rb)
			switch op {
			case 0:
				dst.And(ba, bb)
			case 1:
				dst.Or(ba, bb)
			default:
				dst.AndNot(ba, bb)
			}
			name := names[op]
			checkEqual(t, name, dst, want)
			checkContains(t, name, dst, want, probesFor(want, rng))
			// Operands must be untouched.
			checkEqual(t, name+"/a", ba, ra)
			checkEqual(t, name+"/b", bb, rb)
		}
	}
}

// TestOrAllProperty checks the many-operand union against the model,
// including no operands, empty operands and the container seams.
func TestOrAllProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dst := New()
	for trial := 0; trial < 40; trial++ {
		var refs []refSet
		var srcs []*Bitmap
		want := refSet{}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			r := refSet{}
			if rng.Intn(5) > 0 {
				r = randomRef(rng)
			}
			b := fromRef(r)
			if rng.Intn(2) == 0 {
				b.Optimize()
			}
			refs, srcs = append(refs, r), append(srcs, b)
			want = refOp(1, want, r)
		}
		dst.OrAll(srcs)
		checkEqual(t, "orall", dst, want)
		checkContains(t, "orall", dst, want, probesFor(want, rng))
		for i, b := range srcs {
			checkEqual(t, "orall/src", b, refs[i])
		}
	}
}

func TestAddRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		b := New()
		r := refSet{}
		for k := 0; k < 1+rng.Intn(6); k++ {
			lo := rng.Uint32() % (1 << 18)
			hi := lo + 1 + rng.Uint32()%100000
			b.AddRange(lo, hi)
			for v := lo; v < hi; v++ {
				r[v] = true
			}
		}
		if got, want := b.Cardinality(), len(r); got != want {
			t.Fatalf("trial %d: Cardinality = %d, want %d", trial, got, want)
		}
		checkContains(t, "addrange", b, r, probesFor(r, rng))
	}
	// The top-of-space wraparound chunk.
	b := New()
	b.AddRange(1<<32-10, 0xFFFFFFFF)
	if got := b.Cardinality(); got != 9 {
		t.Fatalf("top-of-space AddRange cardinality = %d, want 9", got)
	}
	if b.Contains(0xFFFFFFFF) {
		t.Fatal("AddRange hi bound must be exclusive")
	}
	if !b.Contains(0xFFFFFFFE) {
		t.Fatal("missing 0xFFFFFFFE")
	}
}

func TestAppendBlockRunsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const block = 2048
	var runs []Run
	for trial := 0; trial < 50; trial++ {
		r := randomRef(rng)
		b := fromRef(r)
		if trial%2 == 1 {
			b.Optimize()
		}
		max := uint32(1 << 18)
		for lo := 0; lo < int(max); lo += block {
			runs = b.AppendBlockRuns(runs[:0], lo, lo+block)
			// Decode runs back to a membership set for this block.
			got := map[uint32]bool{}
			prev := int32(lo) - 1
			for _, run := range runs {
				if run.Lo >= run.Hi {
					t.Fatalf("empty run %+v", run)
				}
				if run.Lo <= prev {
					t.Fatalf("runs not strictly increasing/merged: %+v after %d", run, prev)
				}
				if run.Lo < int32(lo) || run.Hi > int32(lo+block) {
					t.Fatalf("run %+v escapes block [%d,%d)", run, lo, lo+block)
				}
				for v := run.Lo; v < run.Hi; v++ {
					got[uint32(v)] = true
				}
				prev = run.Hi // adjacency must have been merged
			}
			for v := lo; v < lo+block; v++ {
				if got[uint32(v)] != r[uint32(v)] {
					t.Fatalf("block [%d,%d): value %d got %v want %v", lo, lo+block, v, got[uint32(v)], r[uint32(v)])
				}
			}
		}
	}
}

func TestAppendBlockRunsUnaligned(t *testing.T) {
	b := New()
	b.AddRange(60000, 70000) // crosses the chunk seam at 65536
	runs := b.AppendBlockRuns(nil, 59000, 71000)
	if len(runs) != 1 || runs[0] != (Run{60000, 70000}) {
		t.Fatalf("cross-chunk runs = %+v, want one merged run [60000,70000)", runs)
	}
	runs = b.AppendBlockRuns(runs[:0], 65000, 66000)
	if len(runs) != 1 || runs[0] != (Run{65000, 66000}) {
		t.Fatalf("clipped cross-chunk runs = %+v", runs)
	}
}

func TestSizeBytesAndOptimize(t *testing.T) {
	b := New()
	for v := uint32(0); v < 100000; v++ {
		b.Add(v) // per-value adds land in array/bitset form
	}
	before := b.SizeBytes()
	b.Optimize()
	after := b.SizeBytes()
	if after >= before {
		t.Fatalf("Optimize did not shrink a contiguous range: %d -> %d", before, after)
	}
	// Two chunks, one run each: 2*(2 key bytes) + 2*(4 run bytes).
	if after != 2*2+2*4 {
		t.Fatalf("optimized SizeBytes = %d, want 12", after)
	}
}

// TestSelectProperty checks Select against the sorted-slice model: rank i
// of the bitmap is want[i], and ranks outside [0, len) report !ok. The
// sets cover array, bitset and run containers (each type must be seen),
// an empty chunk, and values on both sides of the 65535/65536 chunk seam.
func TestSelectProperty(t *testing.T) {
	check := func(name string, b *Bitmap, r refSet) {
		t.Helper()
		want := r.sorted()
		ranks := make([]int, 0, len(want))
		if len(want) <= 3000 {
			for i := range want {
				ranks = append(ranks, i)
			}
		} else {
			for i := 0; i < len(want); i += 37 {
				ranks = append(ranks, i)
			}
			ranks = append(ranks, len(want)-1)
		}
		for _, i := range ranks {
			if got, ok := b.Select(i); !ok || got != want[i] {
				t.Fatalf("%s: Select(%d) = %d,%v, want %d", name, i, got, ok, want[i])
			}
		}
		for _, i := range []int{-1, len(want), len(want) + 1} {
			if got, ok := b.Select(i); ok {
				t.Fatalf("%s: Select(%d) = %d on %d values, want !ok", name, i, got, len(want))
			}
		}
	}
	seen := map[uint8]bool{}
	note := func(b *Bitmap) {
		for i := range b.ctrs {
			seen[b.ctrs[i].typ] = true
		}
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		r := randomRef(rng)
		b := fromRef(r)
		if trial%2 == 1 {
			b.Optimize()
		}
		note(b)
		check("random", b, r)
	}

	// The chunk seam: the last value of chunk 0 and the first of chunk 1,
	// as array, run (fresh AddRange) and bitset containers.
	seam := refSet{65535: true, 65536: true}
	check("seam array", fromRef(seam), seam)
	runs := New()
	runs.AddRange(60000, 65536)
	runs.AddRange(65536, 70001)
	rr := refSet{}
	for v := uint32(60000); v <= 70000; v++ {
		rr[v] = true
	}
	note(runs)
	check("seam runs", runs, rr)
	dense := New()
	dr := refSet{}
	for v := uint32(0); v < 1<<17; v += 3 {
		dense.Add(v)
		dr[v] = true
	}
	dense.Add(65535)
	dr[65535] = true
	note(dense)
	check("seam bitset", dense, dr)

	// An empty chunk (which Minimum also tolerates) is skipped.
	holed := &Bitmap{keys: []uint16{0, 1}, ctrs: []container{{typ: arrayT}, {typ: arrayT, n: 1, arr: []uint16{70000 - 65536}}}}
	check("empty chunk", holed, refSet{70000: true})

	for _, typ := range []uint8{arrayT, bitsetT, runT} {
		if !seen[typ] {
			t.Errorf("no bitmap exercised container type %d", typ)
		}
	}
}

// TestFromSortedProperty checks FromSorted against the sorted-slice model
// and against an Add-built bitmap after Optimize: the same values through
// every read API, and chunk for chunk the same encoding and payload size.
// The sets cover chunks of exactly arrayCutoff and arrayCutoff+1 values,
// dense runs, and values on both sides of the 65535/65536 chunk seam.
func TestFromSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sets := []refSet{{}}
	for _, n := range []int{arrayCutoff - 1, arrayCutoff, arrayCutoff + 1} {
		for _, base := range []uint32{0, 65536 - uint32(n)/2} { // one chunk, then straddling the seam
			r := refSet{}
			for i := 0; i < n; i++ {
				r[base+uint32(i)*7%65536] = true
			}
			sets = append(sets, r)
		}
	}
	seam := refSet{}
	for v := uint32(65536 - 2*arrayCutoff); v < 65536+2*arrayCutoff; v++ {
		if v%3 != 0 {
			seam[v] = true
		}
	}
	sets = append(sets, seam)
	for trial := 0; trial < 60; trial++ {
		sets = append(sets, randomRef(rng))
	}
	for i, r := range sets {
		want := r.sorted()
		b := FromSorted(want)
		name := fmt.Sprintf("set %d (%d values)", i, len(want))
		checkEqual(t, name, b, r)
		checkContains(t, name, b, r, probesFor(r, rng))
		ref := fromRef(r)
		ref.Optimize()
		if got, wantSize := b.SizeBytes(), ref.SizeBytes(); got != wantSize {
			t.Fatalf("%s: SizeBytes = %d, Add-built %d", name, got, wantSize)
		}
		if len(b.keys) != len(ref.keys) {
			t.Fatalf("%s: %d chunks, Add-built %d", name, len(b.keys), len(ref.keys))
		}
		for k := range b.ctrs {
			if b.keys[k] != ref.keys[k] || b.ctrs[k].typ != ref.ctrs[k].typ {
				t.Fatalf("%s: chunk %d is key %d type %d, Add-built key %d type %d",
					name, k, b.keys[k], b.ctrs[k].typ, ref.keys[k], ref.ctrs[k].typ)
			}
		}
	}
}
