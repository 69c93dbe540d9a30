package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// testFacts stands in for the corpus: the paper-scale window and user
// count, with no corpus generation.
func testFacts() *facts {
	start := sim.DefaultStart.Unix()
	end := start + 2001*day
	f := &facts{firstSubmit: start, lastSubmit: end, firstEvent: start, lastEvent: end}
	for i := 0; i < 900; i++ {
		f.users = append(f.users, fmt.Sprintf("user%03d", i))
	}
	return f
}

func TestMissStreamDeterministic(t *testing.T) {
	f := testFacts()
	a, err := missStream(f, 7, 500)
	if err != nil {
		t.Fatal(err)
	}
	b, err := missStream(f, 7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b[:500]) {
		t.Fatal("same seed gave a different stream (or a longer stream changed its prefix)")
	}
	c, err := missStream(f, 8, 500)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	h1, err := hotSet(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := hotSet(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatal("same seed gave a different hot set")
	}
}

func TestMissStreamNeverRepeatsAndBalancesShapes(t *testing.T) {
	f := testFacts()
	const n = 40000 // more than a 20 s run at the fastest shape's rate
	qs, err := missStream(f, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, q := range qs {
		if seen[q.canon] {
			t.Fatalf("canonical key repeats at %d: %s", i, q.canon)
		}
		seen[q.canon] = true
	}
	// Every block of len(shapes) holds each shape once, so each
	// connection of the interleaved loop sees equal shares too.
	for b := 0; b+len(shapes) <= n; b += len(shapes) {
		var got [8]int
		for _, q := range qs[b : b+len(shapes)] {
			got[q.shape]++
		}
		for s := range shapes {
			if got[s] != 1 {
				t.Fatalf("block at %d holds shape %s %d times", b, shapes[s].name, got[s])
			}
		}
	}
}

func TestHotSetDistinctAndBelowCache(t *testing.T) {
	hot, err := hotSet(testFacts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) > 64 {
		t.Fatalf("hot set of %d predicates", len(hot))
	}
	seen := map[string]bool{}
	for _, q := range hot {
		if seen[q.canon] {
			t.Fatalf("hot set repeats %s", q.canon)
		}
		seen[q.canon] = true
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	got, n, err := percentile(v, 0.9)
	if err != nil || got != 90 || n != 100 {
		t.Fatalf("p90 of 1..100 = %v, n=%d, err=%v; want 90, 100, nil", got, n, err)
	}
	if _, n, err := percentile(v, 0.99); err == nil || n != 100 {
		t.Fatalf("p99 of 100 samples (1 beyond) accepted, n=%d", n)
	}
	if _, _, err := percentile(v[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) accepted")
	}
	if got, _, err := percentile(v[:20], 0.5); err != nil || got != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10 with exactly 10 beyond", got, err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([5, 1, 9, 3, 7, 2], n=4) == [1.75, 4.0, 7.5]
	q1, q2, q3 = quartiles([]float64{5, 1, 9, 3, 7, 2})
	if q1 != 1.75 || q2 != 4 || q3 != 7.5 {
		t.Fatalf("quartiles = %v %v %v, want 1.75 4 7.5", q1, q2, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 || !math.IsNaN(median(nil)) {
		t.Fatalf("median = %v", m)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "request", Start: 0, End: 100 * ms, Parent: -1, Req: 1},
		{Name: "a", Start: 10 * ms, End: 40 * ms, Parent: 0, Req: 1},
		{Name: "b", Start: 30 * ms, End: 50 * ms, Parent: 0, Req: 1},  // overlaps a
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0, Req: 1}, // runs past the parent
		{Name: "a.1", Start: 15 * ms, End: 20 * ms, Parent: 1, Req: 1},
		{Name: "other", Start: 0, End: 5 * ms, Parent: -1, Req: 2},
	}
	self := selfTimes(spans)
	// request: 100 − |[10,50) ∪ [90,100)| = 100 − 50.
	want := []time.Duration{50 * ms, 25 * ms, 20 * ms, 30 * ms, 5 * ms, 5 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestWindowPercentileKeepsTenBeyondPerWindow(t *testing.T) {
	loop := func(n int) *loopStats {
		st := &loopStats{}
		for i := 0; i < n; i++ {
			// Latency rises with completion time, so each window has its own p90.
			st.outcomes = append(st.outcomes, outcome{ms: float64(i), done: time.Duration(i), status: 200})
		}
		st.outcomes = append(st.outcomes, outcome{status: 429}) // not a sample
		return st
	}
	// 1000 samples: five windows of 200; their p90s are 179, 379, … 979.
	v, w, err := loop(1000).windowPercentile(0.9)
	if err != nil || w != 5 || v != 579 {
		t.Fatalf("p90 of 1000 = %v over %d windows, err %v; want 579 over 5", v, w, err)
	}
	// 150 samples leave room for one window only.
	if _, w, err := loop(150).windowPercentile(0.9); err != nil || w != 1 {
		t.Fatalf("p90 of 150: %d windows, err %v; want 1, nil", w, err)
	}
	if _, _, err := loop(50).windowPercentile(0.9); err == nil {
		t.Fatal("p90 of 50 samples accepted")
	}
}
