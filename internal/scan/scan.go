// Package scan is the fused single-pass aggregation engine. Analyses
// register kernels; the engine runs every registered kernel over each
// cache-sized block of a struct-of-arrays column view in one pass, so a
// suite of N analyses costs one sweep of memory traffic instead of N.
//
// # Kernel contract
//
// A Kernel is a factory for per-shard States. The engine calls NewState
// once per shard, feeds each state the shard's rows in block-sized chunks
// via ProcessBlock(view, lo, hi), and then reduces the shard states with a
// deterministic in-order pairwise tree of Merge calls. ProcessBlock must
// only touch rows [lo, hi) and must not retain the view; Merge must fold
// the other state into the receiver assuming other covers the rows
// immediately after the receiver's. Kernel finishing (turning the merged
// state into an analysis result) is the caller's job.
//
// # Determinism
//
// A shard holds ShardRows of the rows the sweep visits: table rows for a
// whole-table sweep, selected rows for a sweep over a selection. The plan
// is thus a pure function of the visited rows — ShardRows is fixed and
// does not depend on the worker count — so the set of partial states is
// identical for any parallelism, and a sweep over a selection cuts its
// rows exactly where a sweep over those rows gathered into a view of
// their own would. The reduction always merges neighbors in index order
// (state i absorbs state i+stride), so the merged state is the same fold
// for 1 worker or 64, and a selection's fold is the gathered view's.
// Kernels whose Merge is associative over adjacent ranges therefore
// produce bit-identical results at any worker count; kernels that
// accumulate in integers (the house style, see DESIGN.md §13) are
// additionally immune to floating-point reassociation.
package scan

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitmap"
	"repro/internal/par"
)

// Shard and block geometry. A shard is the unit of parallelism; a block is
// the unit of cache reuse: every kernel processes one block before the
// engine moves to the next, so the block's columns stay hot across all
// kernels. The values are fixed — NOT derived from GOMAXPROCS — because
// the shard plan is part of the determinism contract.
const (
	// ShardRows is the number of rows per parallel shard.
	ShardRows = 8192
	// BlockRows is the number of rows each ProcessBlock call sees. At
	// roughly 10 hot columns × 8 bytes, a 2048-row block is ~160 KiB —
	// comfortably L2-resident while every kernel takes its turn.
	BlockRows = 2048
)

// State is one kernel's partial aggregate over a contiguous row range.
type State[V any] interface {
	// ProcessBlock folds rows [lo, hi) of the view into the state.
	ProcessBlock(v V, lo, hi int)
	// Merge folds other — the state covering the rows immediately after
	// the receiver's — into the receiver.
	Merge(other State[V])
}

// Kernel is a registered analysis: a named factory for shard states.
type Kernel[V any] interface {
	// Name identifies the kernel in diagnostics.
	Name() string
	// NewState returns a fresh zero-valued partial aggregate.
	NewState() State[V]
}

// Run sweeps rows [0, n) of the view once, feeding every kernel each block,
// with shards fanned out over at most workers goroutines (≤ 0 means
// GOMAXPROCS). It returns one fully merged state per kernel, in kernel
// order. Results are bit-identical for any worker count.
//
// A non-nil sel restricts the sweep to the rows below n set in it: every
// kernel sees exactly the selected rows, in ascending order, as
// ProcessBlock calls over the maximal selected runs of each block. A nil
// sel selects every row, one ProcessBlock(v, blockLo, blockHi) call per
// block.
//
// A selection's shards are cut at every ShardRows-th selected row
// (shardBounds), so a cohort of a few hundred rows is one shard however
// far apart its rows lie, and the merged states equal a sweep over the
// selected rows gathered into a view of their own. Blocks with no
// selected rows are skipped without touching the view's columns; a fully
// selected block issues the same single ProcessBlock call a whole-table
// sweep does, so pushdown costs nothing where the predicate is dense
// (DESIGN.md §14).
func Run[V any](v V, n int, sel *bitmap.Bitmap, kernels []Kernel[V], workers int) ([]State[V], error) {
	if n < 0 {
		return nil, fmt.Errorf("scan: negative row count %d", n)
	}
	shard := func(lo, hi int) []State[V] {
		sts := make([]State[V], len(kernels))
		for i, k := range kernels {
			sts[i] = k.NewState()
		}
		if sel == nil {
			processShard(v, lo, hi, sts)
		} else {
			// Worst case a 2048-row block decomposes into 1024 singleton
			// runs. Each shard task has its own buffer.
			processShardWhere(v, lo, hi, sel, make([]bitmap.Run, 0, BlockRows/2), sts)
		}
		return sts
	}
	bounds := shardBounds(n, sel)
	shards := len(bounds) - 1
	if shards == 1 {
		// Serial fast path (also the empty path): one state set, one
		// block loop, no merge.
		return shard(bounds[0], bounds[1]), nil
	}
	states := make([][]State[V], shards)
	err := par.ForEach(context.Background(), shards, workers, func(s int) error {
		states[s] = shard(bounds[s], bounds[s+1])
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	// Deterministic in-order pairwise tree merge: state i absorbs state
	// i+stride, doubling the stride until shard 0 holds the total. The
	// merge order is a pure function of the shard count, so the fold is
	// identical no matter how the shards were scheduled.
	for stride := 1; stride < shards; stride *= 2 {
		for i := 0; i+stride < shards; i += 2 * stride {
			for k := range kernels {
				states[i][k].Merge(states[i+stride][k])
			}
		}
	}
	return states[0], nil
}

// shardBounds returns the shard plan as row bounds: shard s covers rows
// [b[s], b[s+1]); a sweep with no rows is one empty shard, [0, 0).
// Without a selection a shard is ShardRows table rows. With one, shard s
// starts at the selected row of rank s·ShardRows and the last shard ends
// after the last selected row below n; the ranks come from the
// selection's container cardinalities (bitmap.Select), never from a walk
// over its rows.
func shardBounds(n int, sel *bitmap.Bitmap) []int {
	if sel == nil {
		if n == 0 {
			return []int{0, 0}
		}
		b := make([]int, 0, (n+ShardRows-1)/ShardRows+1)
		for lo := 0; lo < n; lo += ShardRows {
			b = append(b, lo)
		}
		return append(b, n)
	}
	m := sel.Cardinality() // selected rows below n
	if hi, ok := sel.Maximum(); ok && int(hi) >= n {
		m = sort.Search(m, func(i int) bool {
			x, _ := sel.Select(i)
			return int(x) >= n
		})
	}
	if m == 0 {
		return []int{0, 0}
	}
	b := make([]int, 0, (m+ShardRows-1)/ShardRows+1)
	for r := 0; r < m; r += ShardRows {
		x, _ := sel.Select(r)
		b = append(b, int(x))
	}
	last, _ := sel.Select(m - 1)
	return append(b, int(last)+1)
}

// processShard feeds the shard's rows to every state, one block at a time
// so the block's columns stay cache-hot across kernels.
func processShard[V any](v V, lo, hi int, sts []State[V]) {
	for blo := lo; blo < hi; blo += BlockRows {
		bhi := min(blo+BlockRows, hi)
		for _, st := range sts {
			st.ProcessBlock(v, blo, bhi)
		}
	}
}

// processShardWhere feeds each block's selected runs to every state. The
// block-skip test and the run decomposition touch only the selection
// bitmap, never the view's columns.
//
//mira:hotpath
func processShardWhere[V any](v V, lo, hi int, sel *bitmap.Bitmap, runs []bitmap.Run, sts []State[V]) {
	// Blocks stay on the BlockRows grid, so a shard starting mid-block
	// first clips its first block, and no block straddles a bitmap chunk.
	for blo := lo; blo < hi; blo = (blo/BlockRows + 1) * BlockRows {
		bhi := min((blo/BlockRows+1)*BlockRows, hi)
		runs = sel.AppendBlockRuns(runs[:0], blo, bhi)
		if len(runs) == 0 {
			continue
		}
		for _, st := range sts {
			for _, r := range runs {
				st.ProcessBlock(v, int(r.Lo), int(r.Hi))
			}
		}
	}
}
