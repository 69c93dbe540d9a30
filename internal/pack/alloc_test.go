package pack

// Allocation pins for the //mira:hotpath column decoders: every *Into
// primitive decodes into caller-owned scratch, so the per-value loops
// of a snapshot load allocate nothing. The hotalloc analyzer
// (internal/lint) enforces this statically; this test pins it
// dynamically against the real encoder output.

import (
	"math/rand"
	"testing"
)

func TestDecodeCoresAllocFree(t *testing.T) {
	const n = 4096
	const tableN = 1000
	const bound = int64(1) << 19
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, n)
	sorted := make([]int64, n)
	bounded := make([]int64, n)
	indexes := make([]uint64, n)
	prev := int64(0)
	for i := range vals {
		vals[i] = rng.Int63n(1<<40) - (1 << 39)
		prev += rng.Int63n(4096)
		sorted[i] = prev
		bounded[i] = rng.Int63n(bound)
		indexes[i] = uint64(rng.Intn(tableN))
	}
	var w sectionWriter
	w.varints(vals)
	w.deltaInt64s(sorted)
	w.rawInt64s(vals)
	w.varints(bounded)
	for _, id := range indexes {
		w.uvarint(id) // dictIndexes32Into stream
	}
	w.uvarint(42)
	payload := w.buf

	dst64 := make([]int64, n)
	dst32 := make([]int32, n)
	decodeAll := func() {
		r := sectionReader{name: "alloc-test", b: payload}
		r.varintsInto(dst64)
		r.deltasInto(dst64)
		r.raw64sInto(dst64)
		r.varints32Into(dst32, bound, "bounded value")
		r.dictIndexes32Into(dst32, tableN)
		if got := r.uv(); got != 42 {
			t.Fatalf("uv decoded %d, want 42", got)
		}
		if err := r.done(); err != nil {
			t.Fatal(err)
		}
	}
	// Correctness first: the final columns decoded must match the input.
	decodeAll()
	for i := range indexes {
		if dst32[i] != int32(indexes[i]) {
			t.Fatalf("dictionary index %d decoded as %d, want %d", i, dst32[i], indexes[i])
		}
	}
	if n := testing.AllocsPerRun(10, decodeAll); n != 0 {
		t.Errorf("hot decode cores allocate %v per section pass, want 0", n)
	}
}
