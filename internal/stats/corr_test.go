package stats

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect linear r = %v", r)
	}
	yneg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, yneg)
	if math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect negative r = %v", r)
	}
	if _, err := Pearson(x, x[:3]); !errors.Is(err, ErrLengthMismatch) {
		t.Error("length mismatch should fail")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("zero variance should fail")
	}
}

func TestPearsonIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 10000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	r, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.05 {
		t.Errorf("independent r = %v, want ≈0", r)
	}
}

func TestSpearman(t *testing.T) {
	// Monotone nonlinear relation: Spearman 1, Pearson < 1.
	x := []float64{1, 2, 3, 4, 5, 6}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = math.Exp(v)
	}
	rho, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Errorf("monotone spearman = %v", rho)
	}
	r, _ := Pearson(x, y)
	if r >= 1-1e-9 {
		t.Errorf("pearson should be < 1 for convex relation, got %v", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 1, 2, 2, 3}
	y := []float64{1, 1, 2, 2, 3}
	rho, err := Spearman(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rho-1) > 1e-12 {
		t.Errorf("tied identical spearman = %v", rho)
	}
}

func TestRanks(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("ranks = %v, want %v", r, want)
			break
		}
	}
}

// TestRanksSmallDomainMatchesSort pins Ranks on samples drawn from small
// value domains (the 0/1 failure indicator, block sizes), where every value
// is heavily tied, and on a continuous sample, to a reference built by
// sorting indices, bit for bit.
func TestRanksSmallDomainMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reference := func(x []float64) []float64 {
		idx := make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
		r := make([]float64, len(x))
		for i := 0; i < len(idx); {
			j := i
			for j+1 < len(idx) && x[idx[j+1]] == x[idx[i]] {
				j++
			}
			avg := (float64(i+1) + float64(j+1)) / 2
			for k := i; k <= j; k++ {
				r[idx[k]] = avg
			}
			i = j + 1
		}
		return r
	}
	domains := [][]float64{
		{0, 1},
		{512, 1024, 2048, 4096, 8192},
		{-1.5, 0, 2.25, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53},
		{42},
	}
	for di, domain := range domains {
		x := make([]float64, 999)
		for i := range x {
			x[i] = domain[rng.Intn(len(domain))]
		}
		got := Ranks(x)
		want := reference(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("domain %d: rank[%d] = %v, want %v", di, i, got[i], want[i])
			}
		}
	}
	wide := make([]float64, 100)
	for i := range wide {
		wide[i] = rng.NormFloat64()
	}
	for _, x := range [][]float64{wide, {3, 1, 4, 1, 5, 9, 2, 6}} {
		got := Ranks(x)
		want := reference(x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ranks[%d] = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

func TestContingencyChiSquare(t *testing.T) {
	// Perfectly associated 2x2.
	a := []string{"u1", "u1", "u2", "u2"}
	b := []string{"fail", "fail", "ok", "ok"}
	tab, err := NewContingencyTable(a, b)
	if err != nil {
		t.Fatal(err)
	}
	chi2, df := tab.ChiSquare()
	if df != 1 {
		t.Errorf("df = %d, want 1", df)
	}
	if math.Abs(chi2-4) > 1e-12 { // n * (phi=1)^2
		t.Errorf("chi2 = %v, want 4", chi2)
	}
	if v := tab.CramersV(); math.Abs(v-1) > 1e-12 {
		t.Errorf("V = %v, want 1", v)
	}
}

func TestCramersVIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 20000
	a := make([]string, n)
	b := make([]string, n)
	users := []string{"u1", "u2", "u3", "u4"}
	outcomes := []string{"ok", "fail"}
	for i := 0; i < n; i++ {
		a[i] = users[rng.Intn(len(users))]
		b[i] = outcomes[rng.Intn(len(outcomes))]
	}
	v, err := CramersV(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if v > 0.05 {
		t.Errorf("independent V = %v, want ≈0", v)
	}
}

func TestContingencyErrors(t *testing.T) {
	if _, err := NewContingencyTable([]string{"a"}, []string{"x", "y"}); !errors.Is(err, ErrLengthMismatch) {
		t.Error("mismatch should fail")
	}
	if _, err := NewContingencyTable(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Error("empty should fail")
	}
}

func TestGini(t *testing.T) {
	// Perfect equality.
	g, err := Gini([]float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g) > 1e-12 {
		t.Errorf("equal gini = %v", g)
	}
	// Maximal inequality with n=4: G = (n-1)/n = 0.75.
	g, _ = Gini([]float64{0, 0, 0, 10})
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("max gini = %v, want 0.75", g)
	}
	if _, err := Gini(nil); !errors.Is(err, ErrEmpty) {
		t.Error("empty gini should fail")
	}
	if g, _ := Gini([]float64{0, 0}); g != 0 {
		t.Errorf("all-zero gini = %v", g)
	}
}

func TestLorenz(t *testing.T) {
	ps, shares, err := Lorenz([]float64{1, 1, 1, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ps[0] != 0 || shares[0] != 0 || ps[4] != 1 || math.Abs(shares[4]-1) > 1e-12 {
		t.Errorf("lorenz endpoints: %v %v", ps, shares)
	}
	// Bottom 75% hold 3/10.
	if math.Abs(shares[3]-0.3) > 1e-12 {
		t.Errorf("share at 0.75 = %v, want 0.3", shares[3])
	}
	// Curve must be convex (below diagonal) for unequal data.
	for i := range ps {
		if shares[i] > ps[i]+1e-12 {
			t.Errorf("lorenz above diagonal at %v", ps[i])
		}
	}
}

func TestTopKShare(t *testing.T) {
	data := []float64{1, 2, 3, 4, 90}
	s, err := TopKShare(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.9) > 1e-12 {
		t.Errorf("top-1 share = %v", s)
	}
	if s, _ := TopKShare(data, 10); s != 1 {
		t.Errorf("k>n share = %v", s)
	}
	if s, _ := TopKShare([]float64{0, 0}, 1); s != 0 {
		t.Errorf("zero-total share = %v", s)
	}
}
