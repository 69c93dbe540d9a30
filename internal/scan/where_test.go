package scan

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitmap"
)

// runWhereTrace runs the trace+sum kernel pair over the rows set in sel.
func runWhereTrace(t *testing.T, n int, sel *bitmap.Bitmap, workers int) (*traceState, *sumState) {
	t.Helper()
	states, err := Run(rowsView{n}, n, sel, []Kernel[rowsView]{traceKernel{}, sumKernel{}}, workers)
	if err != nil {
		t.Fatalf("Run(n=%d, workers=%d) over a selection: %v", n, workers, err)
	}
	return states[0].(*traceState), states[1].(*sumState)
}

// TestRunWhereVisitsExactlySelection checks that every selected row is
// visited exactly once, in ascending order, for several selection shapes
// and worker counts.
func TestRunWhereVisitsExactlySelection(t *testing.T) {
	const n = 3*ShardRows + 777
	rng := rand.New(rand.NewSource(5))
	shapes := map[string]func() *bitmap.Bitmap{
		"empty": func() *bitmap.Bitmap { return bitmap.New() },
		"full": func() *bitmap.Bitmap {
			b := bitmap.New()
			b.AddRange(0, n)
			return b
		},
		"sparse": func() *bitmap.Bitmap {
			b := bitmap.New()
			for i := 0; i < n; i += 97 {
				b.Add(uint32(i))
			}
			return b
		},
		"random": func() *bitmap.Bitmap {
			b := bitmap.New()
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					b.Add(uint32(i))
				}
			}
			return b
		},
		"oneblock": func() *bitmap.Bitmap {
			b := bitmap.New()
			b.AddRange(2*BlockRows, 3*BlockRows)
			return b
		},
		"tail": func() *bitmap.Bitmap {
			b := bitmap.New()
			b.AddRange(n-5, n+100) // past-the-end bits must be clipped by block bounds
			return b
		},
	}
	for name, mk := range shapes {
		sel := mk()
		var want []int
		var wantSum int64
		sel.Iterate(func(x uint32) bool {
			if int(x) < n {
				want = append(want, int(x))
				wantSum += int64(x)
			}
			return true
		})
		var ref *traceState
		for _, workers := range []int{1, 4, 8} {
			tr, sum := runWhereTrace(t, n, sel, workers)
			if sum.total != wantSum {
				t.Errorf("%s workers=%d: sum = %d, want %d", name, workers, sum.total, wantSum)
			}
			if len(tr.rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(tr.rows, want)) {
				t.Errorf("%s workers=%d: visited %d rows, want %d (ascending selection order)",
					name, workers, len(tr.rows), len(want))
			}
			if ref == nil {
				ref = tr
			} else if !reflect.DeepEqual(tr.blocks, ref.blocks) {
				t.Errorf("%s workers=%d: block trace differs from workers=1 — determinism broken", name, workers)
			}
		}
	}
}

// TestRunWhereFullSelectionMatchesRun pins the fast-path contract: a fully
// selected scan issues exactly the block calls of the unmasked engine.
func TestRunWhereFullSelectionMatchesRun(t *testing.T) {
	for _, n := range []int{0, 1, BlockRows, ShardRows + 3, 2*ShardRows + BlockRows + 11} {
		full := bitmap.New()
		full.AddRange(0, uint32(n))
		states, err := Run(rowsView{n}, n, nil, []Kernel[rowsView]{traceKernel{}}, 4)
		if err != nil {
			t.Fatal(err)
		}
		want := states[0].(*traceState).blocks
		tr, _ := runWhereTrace(t, n, full, 4)
		if !reflect.DeepEqual(tr.blocks, want) {
			t.Errorf("n=%d: full-selection blocks %v, want unmasked blocks %v", n, tr.blocks, want)
		}
	}
}

// TestRunWhereNilSelection checks a nil selection sweeps every row with
// one ProcessBlock call per block: no run decomposition.
func TestRunWhereNilSelection(t *testing.T) {
	const n = ShardRows + 10
	tr, sum := runWhereTrace(t, n, nil, 2)
	want := int64(n) * int64(n-1) / 2
	if got := sum.total; got != want {
		t.Errorf("nil selection sum = %d, want %d", got, want)
	}
	var blocks [][2]int
	for lo := 0; lo < n; lo += ShardRows {
		shardHi := min(lo+ShardRows, n)
		for blo := lo; blo < shardHi; blo += BlockRows {
			blocks = append(blocks, [2]int{blo, min(blo+BlockRows, shardHi)})
		}
	}
	if !reflect.DeepEqual(tr.blocks, blocks) {
		t.Errorf("nil selection blocks %v, want %v", tr.blocks, blocks)
	}
}
