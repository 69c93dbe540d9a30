package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/scan"
)

// foldPieces runs every kernel over the pieces [cuts[i], cuts[i+1]), one
// ProcessBlock per piece, and merges each kernel's piece states left to
// right. An empty piece gets a zero-row ProcessBlock call when touchEmpty
// holds and no call otherwise, the way a pushdown scan skips an empty
// block; both must merge as the identity.
func foldPieces[V any](v V, kernels []scan.Kernel[V], cuts []int, touchEmpty bool) []scan.State[V] {
	out := make([]scan.State[V], len(kernels))
	for k, kern := range kernels {
		var acc scan.State[V]
		for p := 0; p+1 < len(cuts); p++ {
			lo, hi := cuts[p], cuts[p+1]
			st := kern.NewState()
			if lo < hi || touchEmpty {
				st.ProcessBlock(v, lo, hi)
			}
			if p == 0 {
				acc = st
			} else {
				acc.Merge(st)
			}
		}
		out[k] = acc
	}
	return out
}

// randomCuts picks a row range of [0, n) and splits it at 1–4 random
// points. A third of the ranges lie inside one scan block, and a cut may
// repeat a bound or another cut, so pieces can be empty.
func randomCuts(rng *rand.Rand, n int) []int {
	lo, hi := 0, n
	switch rng.Intn(3) {
	case 0: // inside one block
		b := rng.Intn((n + scan.BlockRows - 1) / scan.BlockRows)
		lo, hi = b*scan.BlockRows, min((b+1)*scan.BlockRows, n)
		lo += rng.Intn(hi - lo + 1)
		hi = lo + rng.Intn(hi-lo+1)
	case 1: // anywhere
		lo = rng.Intn(n + 1)
		hi = lo + rng.Intn(n-lo+1)
	}
	cuts := []int{lo, hi}
	for i := rng.Intn(4); i >= 0; i-- {
		switch rng.Intn(4) {
		case 0: // repeat an existing cut: an empty piece
			cuts = append(cuts, cuts[rng.Intn(len(cuts))])
		default:
			cuts = append(cuts, lo+rng.Intn(hi-lo+1))
		}
	}
	sort.Ints(cuts)
	return cuts
}

// TestKernelMergeLaw checks the property the scan engine's determinism
// rests on, for every kernel the fused scan registers: folding a row range
// in pieces and merging the piece states left to right finishes to the
// same profile as one state over the whole range. It also checks scan.Run's
// sharded tree merge over every row against the one-state fold.
func TestKernelMergeLaw(t *testing.T) {
	d, _ := dataset(t)
	jv, ev := d.JobView(), d.EventView()
	t0, t1 := d.Span()
	start, end := t0.Unix(), t1.Unix()
	tk := newTemporalJobKernel(d)
	jobKernels := fusedJobKernels(jv, tk)
	eventKernels := fusedEventKernels(ev, tk.monthCap)
	bounds := func(cuts []int) []int { return []int{cuts[0], cuts[len(cuts)-1]} }
	finish := func(jsts []JobState, ests []EventState) *FusedProfile {
		return d.finishProfile(d.wholeJobSide(jsts), jsts, ests, 0, start, end)
	}

	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		jcuts, ecuts := randomCuts(rng, jv.N), randomCuts(rng, ev.N)
		touch := rng.Intn(2) == 0
		want := finish(
			foldPieces(jv, jobKernels, bounds(jcuts), true),
			foldPieces(ev, eventKernels, bounds(ecuts), true))
		got := finish(
			foldPieces(jv, jobKernels, jcuts, touch),
			foldPieces(ev, eventKernels, ecuts, touch))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: jobs cut at %v, events at %v: merged pieces differ from one state:\n got  %+v\nwant %+v",
				trial, jcuts, ecuts, got, want)
		}
	}

	want := finish(
		foldPieces(jv, jobKernels, []int{0, jv.N}, true),
		foldPieces(ev, eventKernels, []int{0, ev.N}, true))
	for _, workers := range []int{1, 4} {
		jsts, err := scan.Run(jv, jv.N, nil, jobKernels, workers)
		if err != nil {
			t.Fatal(err)
		}
		ests, err := scan.Run(ev, ev.N, nil, eventKernels, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := finish(jsts, ests); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: scan.Run differs from the one-state fold", workers)
		}
	}
}
