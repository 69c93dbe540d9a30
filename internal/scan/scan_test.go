package scan

import (
	"reflect"
	"testing"
)

// rowsView is a trivial column view for engine tests: the value of row i is
// just i.
type rowsView struct{ n int }

// traceKernel records every (lo, hi) block and every row it visits, in
// order. Merge concatenates — so the final trace is sensitive to both the
// shard plan and the merge order, and pinning it pins the engine's
// determinism contract.
type traceKernel struct{}

type traceState struct {
	rows   []int
	blocks [][2]int
	merges int
}

func (traceKernel) Name() string              { return "trace" }
func (traceKernel) NewState() State[rowsView] { return &traceState{} }

func (s *traceState) ProcessBlock(v rowsView, lo, hi int) {
	s.blocks = append(s.blocks, [2]int{lo, hi})
	for i := lo; i < hi; i++ {
		s.rows = append(s.rows, i)
	}
}

func (s *traceState) Merge(other State[rowsView]) {
	o := other.(*traceState)
	s.rows = append(s.rows, o.rows...)
	s.blocks = append(s.blocks, o.blocks...)
	s.merges += o.merges + 1
}

// sumKernel is a second kernel so multi-kernel runs are exercised.
type sumKernel struct{}

type sumState struct{ total int64 }

func (sumKernel) Name() string              { return "sum" }
func (sumKernel) NewState() State[rowsView] { return &sumState{} }

func (s *sumState) ProcessBlock(v rowsView, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.total += int64(i)
	}
}

func (s *sumState) Merge(other State[rowsView]) { s.total += other.(*sumState).total }

func runTrace(t *testing.T, n, workers int) (*traceState, *sumState) {
	t.Helper()
	states, err := Run(rowsView{n}, n, nil, []Kernel[rowsView]{traceKernel{}, sumKernel{}}, workers)
	if err != nil {
		t.Fatal(err)
	}
	return states[0].(*traceState), states[1].(*sumState)
}

// TestRunVisitsEveryRowInOrder pins the core determinism property: after
// the in-order merge, the trace of visited rows is exactly 0..n-1 in order,
// regardless of worker count, for row counts around the shard and block
// boundaries.
func TestRunVisitsEveryRowInOrder(t *testing.T) {
	sizes := []int{0, 1, BlockRows - 1, BlockRows, BlockRows + 1,
		ShardRows - 1, ShardRows, ShardRows + 1, 3 * ShardRows, 5*ShardRows + 7}
	for _, n := range sizes {
		serial, serialSum := runTrace(t, n, 1)
		if len(serial.rows) != n {
			t.Fatalf("n=%d: serial trace visited %d rows", n, len(serial.rows))
		}
		for i, r := range serial.rows {
			if r != i {
				t.Fatalf("n=%d: serial trace out of order at %d: got row %d", n, i, r)
			}
		}
		for _, workers := range []int{2, 3, 4, 16} {
			par, parSum := runTrace(t, n, workers)
			if !reflect.DeepEqual(par.rows, serial.rows) {
				t.Fatalf("n=%d workers=%d: row trace differs from serial", n, workers)
			}
			if !reflect.DeepEqual(par.blocks, serial.blocks) {
				t.Fatalf("n=%d workers=%d: block plan differs from serial", n, workers)
			}
			if parSum.total != serialSum.total {
				t.Fatalf("n=%d workers=%d: sum %d != serial %d", n, workers, parSum.total, serialSum.total)
			}
		}
	}
}

// TestRunBlockPlan pins the fixed shard/block decomposition: blocks never
// span a shard boundary, never exceed BlockRows, and tile [0, n) exactly.
func TestRunBlockPlan(t *testing.T) {
	n := 2*ShardRows + ShardRows/2 + 13
	tr, _ := runTrace(t, n, 4)
	next := 0
	for _, b := range tr.blocks {
		lo, hi := b[0], b[1]
		if lo != next {
			t.Fatalf("block starts at %d, want %d", lo, next)
		}
		if hi <= lo || hi-lo > BlockRows {
			t.Fatalf("block [%d,%d) has bad size", lo, hi)
		}
		if lo/ShardRows != (hi-1)/ShardRows {
			t.Fatalf("block [%d,%d) spans a shard boundary", lo, hi)
		}
		next = hi
	}
	if next != n {
		t.Fatalf("blocks cover [0,%d), want [0,%d)", next, n)
	}
}

// TestRunMergeTree checks every shard state is merged exactly once into the
// root (shards-1 merges total), at any worker count.
func TestRunMergeTree(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 5, 8, 13} {
		n := shards * ShardRows
		tr, _ := runTrace(t, n, 4)
		if tr.merges != shards-1 {
			t.Fatalf("shards=%d: %d merges, want %d", shards, tr.merges, shards-1)
		}
	}
}

func TestRunEmptyAndErrors(t *testing.T) {
	states, err := Run(rowsView{0}, 0, nil, []Kernel[rowsView]{sumKernel{}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := states[0].(*sumState).total; got != 0 {
		t.Fatalf("empty run summed %d", got)
	}
	if _, err := Run(rowsView{0}, -1, nil, []Kernel[rowsView]{sumKernel{}}, 1); err == nil {
		t.Fatal("negative row count accepted")
	}
	if states, err := Run(rowsView{5}, 5, nil, nil, 1); err != nil || len(states) != 0 {
		t.Fatalf("kernel-less run: states=%v err=%v", states, err)
	}
}
