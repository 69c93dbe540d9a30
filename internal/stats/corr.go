package stats

import (
	"errors"
	"math"
	"slices"
)

// ErrLengthMismatch is returned when paired samples differ in length.
var ErrLengthMismatch = errors.New("stats: paired samples have different lengths")

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples x and y.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	if len(x) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance in pearson input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ranksPairSort is Ranks' comparison-sort path, taken for inputs with a
// NaN or −0. The sort runs over flat (value, index) pairs instead of an
// index slice with an indirect comparator. Tied values all receive the same
// average rank, so the rank vector is a pure function of the values — the
// order a sort leaves equal elements in cannot affect the output.
func ranksPairSort(x []float64) []float64 {
	n := len(x)
	type pair struct {
		v float64
		i int32
	}
	ps := make([]pair, n)
	for i := range ps {
		ps[i] = pair{x[i], int32(i)}
	}
	slices.SortFunc(ps, func(a, b pair) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		default:
			return 0
		}
	})
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && ps[j+1].v == ps[i].v {
			j++
		}
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			r[ps[k].i] = avg
		}
		i = j + 1
	}
	return r
}

// Spearman returns Spearman's rank correlation ρ of the paired samples,
// handling ties by average ranks.
func Spearman(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, ErrLengthMismatch
	}
	if len(x) < 2 {
		return 0, ErrEmpty
	}
	return Pearson(Ranks(x), Ranks(y))
}

// SpearmanRanks returns Spearman's ρ from two precomputed rank vectors
// (Ranks or RanksSorted), so callers that rank a series once can
// correlate it with several others.
func SpearmanRanks(rx, ry []float64) (float64, error) {
	if len(rx) != len(ry) {
		return 0, ErrLengthMismatch
	}
	if len(rx) < 2 {
		return 0, ErrEmpty
	}
	return Pearson(rx, ry)
}

// ContingencyTable is a two-way table of counts over categorical variables.
type ContingencyTable struct {
	rows, cols map[string]int
	counts     [][]float64
	rowNames   []string
	colNames   []string
	total      float64
}

// NewContingencyTable builds a contingency table from paired categorical
// observations.
func NewContingencyTable(a, b []string) (*ContingencyTable, error) {
	if len(a) != len(b) {
		return nil, ErrLengthMismatch
	}
	if len(a) == 0 {
		return nil, ErrEmpty
	}
	t := &ContingencyTable{rows: map[string]int{}, cols: map[string]int{}}
	for i := range a {
		if _, ok := t.rows[a[i]]; !ok {
			t.rows[a[i]] = len(t.rowNames)
			t.rowNames = append(t.rowNames, a[i])
		}
		if _, ok := t.cols[b[i]]; !ok {
			t.cols[b[i]] = len(t.colNames)
			t.colNames = append(t.colNames, b[i])
		}
	}
	t.counts = make([][]float64, len(t.rowNames))
	for i := range t.counts {
		t.counts[i] = make([]float64, len(t.colNames))
	}
	for i := range a {
		t.counts[t.rows[a[i]]][t.cols[b[i]]]++
		t.total++
	}
	return t, nil
}

// ChiSquare returns the Pearson chi-square statistic and degrees of freedom
// of the table's independence test.
func (t *ContingencyTable) ChiSquare() (stat float64, df int) {
	r, c := len(t.rowNames), len(t.colNames)
	rowSum := make([]float64, r)
	colSum := make([]float64, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			rowSum[i] += t.counts[i][j]
			colSum[j] += t.counts[i][j]
		}
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			expected := rowSum[i] * colSum[j] / t.total
			if expected == 0 {
				continue
			}
			d := t.counts[i][j] - expected
			stat += d * d / expected
		}
	}
	return stat, (r - 1) * (c - 1)
}

// CramersV returns Cramér's V association measure in [0,1] for the table —
// the statistic the paper uses for user↔outcome association.
func (t *ContingencyTable) CramersV() float64 {
	chi2, _ := t.ChiSquare()
	r, c := len(t.rowNames), len(t.colNames)
	k := math.Min(float64(r-1), float64(c-1))
	if k == 0 || t.total == 0 {
		return 0
	}
	return math.Sqrt(chi2 / (t.total * k))
}

// CramersV is a convenience wrapper building the table and returning V.
func CramersV(a, b []string) (float64, error) {
	t, err := NewContingencyTable(a, b)
	if err != nil {
		return 0, err
	}
	return t.CramersV(), nil
}
