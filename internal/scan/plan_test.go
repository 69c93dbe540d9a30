package scan

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/bitmap"
)

// floatsView is a view of one float column: row i holds v[i].
type floatsView []float64

// fsumKernel sums the column in row order. Floating-point addition is not
// associative, so the merged total depends on where the shards are cut
// and in which order their states merge: two sweeps agree bit for bit
// only if they fold the same rows through the same plan.
type fsumKernel struct{}

type fsumState struct{ total float64 }

func (fsumKernel) Name() string                { return "float-sum" }
func (fsumKernel) NewState() State[floatsView] { return &fsumState{} }

func (s *fsumState) ProcessBlock(v floatsView, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.total += v[i]
	}
}

func (s *fsumState) Merge(other State[floatsView]) { s.total += other.(*fsumState).total }

// shapeKernel records the merge tree: a leaf is its shard's row count, a
// merge is "(left right)".
type shapeKernel struct{}

type shapeState struct {
	rows int
	tree string
}

func (shapeKernel) Name() string                { return "merge-shape" }
func (shapeKernel) NewState() State[floatsView] { return &shapeState{} }

func (s *shapeState) ProcessBlock(v floatsView, lo, hi int) { s.rows += hi - lo }

func (s *shapeState) shape() string {
	if s.tree == "" {
		return strconv.Itoa(s.rows)
	}
	return s.tree
}

func (s *shapeState) Merge(other State[floatsView]) {
	o := other.(*shapeState)
	s.tree = "(" + s.shape() + " " + o.shape() + ")"
	s.rows += o.rows
}

func runFloats(t *testing.T, v floatsView, n int, sel *bitmap.Bitmap, workers int) (float64, string) {
	t.Helper()
	sts, err := Run(v, n, sel, []Kernel[floatsView]{fsumKernel{}, shapeKernel{}}, workers)
	if err != nil {
		t.Fatal(err)
	}
	return sts[0].(*fsumState).total, sts[1].(*shapeState).shape()
}

// TestRunSelectionMatchesGathered pins the selected-row shard plan: a
// sweep over a selection folds exactly as a sweep over the selected rows
// gathered into a view of their own, bit for bit, at 1, 2 and 4 workers.
// The selections hold 0, 1, ShardRows−1, ShardRows, ShardRows+1 and
// 3·ShardRows+7 rows below n, each also with rows at and past n, which the
// sweep must ignore.
func TestRunSelectionMatchesGathered(t *testing.T) {
	const n = 4*ShardRows + 1000
	rng := rand.New(rand.NewSource(28))
	vals := make(floatsView, n)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)))
	}
	for _, m := range []int{0, 1, ShardRows - 1, ShardRows, ShardRows + 1, 3*ShardRows + 7} {
		rows := rng.Perm(n)[:m]
		sort.Ints(rows)
		for _, beyond := range [][]uint32{nil, {n, n + 5, 1<<16 + 3}} {
			sel := bitmap.New()
			gathered := make(floatsView, 0, m)
			for _, r := range rows {
				sel.Add(uint32(r))
				gathered = append(gathered, vals[r])
			}
			for _, r := range beyond {
				sel.Add(r)
			}
			wantSum, wantShape := runFloats(t, gathered, len(gathered), nil, 1)
			for _, workers := range []int{1, 2, 4} {
				sum, shape := runFloats(t, vals, n, sel, workers)
				if math.Float64bits(sum) != math.Float64bits(wantSum) || shape != wantShape {
					t.Errorf("m=%d beyond=%v workers=%d: sum %v shape %s, gathered view gives %v shape %s",
						m, beyond, workers, sum, shape, wantSum, wantShape)
				}
			}
			if m == 3*ShardRows+7 {
				// The probe has teeth: one left-to-right fold of the same
				// rows ends on different bits.
				var seq float64
				for _, x := range gathered {
					seq += x
				}
				if math.Float64bits(seq) == math.Float64bits(wantSum) {
					t.Error("float sum is insensitive to the shard plan; pick other values")
				}
			}
		}
	}
}

// TestKernelMergeLaw is the merge law of the engine's own test kernels,
// the property core's TestKernelMergeLaw checks for the fused kernels:
// folding a row range in pieces, merging the piece states left to right,
// gives the one-state fold, with an empty piece merging as the identity
// whether or not it saw a zero-row ProcessBlock. The trace kernel is
// compared on its visited rows (its block list records the cuts by
// design). fsumKernel is exempt: its sum reassociates at every cut, which
// is what makes it the plan test's probe.
func TestKernelMergeLaw(t *testing.T) {
	const n = 3*BlockRows + 77
	rng := rand.New(rand.NewSource(29))
	v := rowsView{n}
	fold := func(k Kernel[rowsView], cuts []int, touchEmpty bool) State[rowsView] {
		var acc State[rowsView]
		for p := 0; p+1 < len(cuts); p++ {
			st := k.NewState()
			if cuts[p] < cuts[p+1] || touchEmpty {
				st.ProcessBlock(v, cuts[p], cuts[p+1])
			}
			if acc == nil {
				acc = st
			} else {
				acc.Merge(st)
			}
		}
		return acc
	}
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		cuts := []int{lo, hi}
		for i := rng.Intn(5); i >= 0; i-- {
			cuts = append(cuts, lo+rng.Intn(hi-lo+1))
		}
		sort.Ints(cuts)
		touch := trial%2 == 0
		one := []int{lo, hi}
		if got, want := fold(traceKernel{}, cuts, touch).(*traceState).rows, fold(traceKernel{}, one, true).(*traceState).rows; !reflect.DeepEqual(got, want) {
			t.Fatalf("trace: cuts %v visit %v, one state %v", cuts, got, want)
		}
		if got, want := fold(sumKernel{}, cuts, touch).(*sumState).total, fold(sumKernel{}, one, true).(*sumState).total; got != want {
			t.Fatalf("sum: cuts %v give %d, one state %d", cuts, got, want)
		}
	}
}
