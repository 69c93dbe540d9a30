package dist

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// KSStatistic is the one-off KS statistic of d over the collapsed ECDF (NaN
// for an empty sample), the form the tests and examples call. Shipped code
// reads KS from goodnessOfFit (one CDF table shared with AD) or from
// KSPolish.
func (s *Sample) KSStatistic(d Distribution) float64 {
	if s.N() == 0 {
		return math.NaN()
	}
	xs, _ := s.ECDFPoints()
	ks, _ := s.ksFromTable(s.fillCDF(d, make([]float64, len(xs))))
	return ks
}

// gof is goodnessOfFit with a fresh CDF table sized to the sample's
// distinct values.
func gof(s *Sample, d Distribution) (ks, ad float64) {
	xs, _ := s.ECDFPoints()
	return s.goodnessOfFit(d, make([]float64, len(xs)))
}

// ksStatisticPerPoint is the KS loop the collapsed-ECDF scans replaced,
// kept verbatim as the oracle: one CDF call per point, tied or not.
// goodnessOfFit and KSStatistic must reproduce its bits.
func ksStatisticPerPoint(d Distribution, sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	maxD := 0.0
	for i, x := range sorted {
		f := d.CDF(x)
		if lo := math.Abs(f - float64(i)/float64(n)); lo > maxD {
			maxD = lo
		}
		if hi := math.Abs(float64(i+1)/float64(n) - f); hi > maxD {
			maxD = hi
		}
	}
	return maxD
}

// adStatisticPerPoint is the Anderson–Darling loop the shared CDF table
// replaced, kept verbatim as the oracle: two CDF calls per point, tied or
// not. goodnessOfFit's A² must reproduce its bits.
func adStatisticPerPoint(d Distribution, sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		fi := d.CDF(sorted[i])
		fj := d.CDF(sorted[n-1-i])
		if fi <= 0 || fj >= 1 {
			return math.Inf(1)
		}
		sum += float64(2*i+1) * (math.Log(fi) + math.Log1p(-fj))
	}
	return -float64(n) - sum/float64(n)
}

// ksPolishFullScan is the coordinate descent KSPolish replaced, kept as the
// oracle: its own copy and sort of the data, a fresh candidate slice per
// perturbation, and a full per-point KS scan for every candidate (no
// collapsed ECDF, no branch-and-bound abort). KSPolish must land on the
// same parameters and the same KS bits.
func ksPolishFullScan(d Parametric, data []float64, iters int) (Distribution, float64) {
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	best := Distribution(d)
	bestKS := ksStatisticPerPoint(best, sorted)
	params := d.Params()
	step := 0.25
	for sweep := 0; sweep < iters; sweep++ {
		improved := false
		for i := range params {
			for _, dir := range []float64{1 + step, 1 / (1 + step)} {
				cand := append([]float64(nil), params...)
				if cand[i] == 0 {
					cand[i] = dir - 1
				} else {
					cand[i] *= dir
				}
				nd, err := d.WithParams(cand)
				if err != nil {
					continue
				}
				if ks := ksStatisticPerPoint(nd, sorted); ks < bestKS {
					bestKS = ks
					best = nd
					params = cand
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
			if step < 1e-4 {
				break
			}
		}
	}
	return best, bestKS
}

// TestADStatisticSortedMatchesPerPoint pins goodnessOfFit — KS and AD from
// one CDF table — to the per-point oracles bit for bit, and its table reuse
// to zero allocations.
func TestADStatisticSortedMatchesPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tied := make([]float64, 5000)
	untied := make([]float64, 5000)
	for i := range tied {
		untied[i] = rng.ExpFloat64()*5 + 0.1
		tied[i] = math.Ceil(untied[i])
	}
	negZero := math.Copysign(0, -1)
	samples := map[string]*Sample{
		"tied":         NewSample(tied),
		"untied":       NewSample(untied),
		"one value":    NewSample([]float64{3, 3, 3, 3}),
		"single":       NewSample([]float64{2}),
		"signed zeros": NewSampleSorted([]float64{negZero, 0, negZero, 1, 2, 2}),
		"below":        NewSample([]float64{-5, -5, 1, 2}),
		"above":        NewSample([]float64{1, 2, 1e300, 1e300}),
		"infinite":     NewSample([]float64{1, 1, 2, math.Inf(1)}),
	}
	for _, d := range testDists(t) {
		for name, s := range samples {
			ks, ad := gof(s, d)
			if want := adStatisticPerPoint(d, s.Sorted()); math.Float64bits(ad) != math.Float64bits(want) {
				t.Errorf("%T on %s: AD %v, per-point oracle %v", d, name, ad, want)
			}
			if want := ksStatisticPerPoint(d, s.Sorted()); math.Float64bits(ks) != math.Float64bits(want) {
				t.Errorf("%T on %s: KS %v, per-point oracle %v", d, name, ks, want)
			}
		}
	}
	var d Distribution = testDists(t)[1]
	s := samples["tied"]
	xs, _ := s.ECDFPoints()
	cdf := make([]float64, len(xs))
	var sink float64
	if n := testing.AllocsPerRun(20, func() {
		ks, ad := s.goodnessOfFit(d, cdf)
		sink += ks + ad
	}); n != 0 {
		t.Errorf("goodnessOfFit allocates %v per run on tied data, want 0", n)
	}
	_ = sink
}

// fuzzSeries decodes fuzz bytes into a finite series rich in the values
// that separate a fast path from its oracle: runs of ties, +0 and −0,
// subnormals, negatives, quantized runtimes and arbitrary finite bit
// patterns. Each value costs one tag byte plus its payload.
func fuzzSeries(data []byte) []float64 {
	var out []float64
	for len(data) > 0 && len(out) < 128 {
		tag := data[0]
		data = data[1:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		var x float64
		switch tag % 8 {
		case 0: // repeat the previous value: a run of ties
			if len(out) == 0 {
				continue
			}
			x = out[len(out)-1]
		case 1:
			x = 0
		case 2:
			x = math.Copysign(0, -1)
		case 3: // subnormal
			x = math.SmallestNonzeroFloat64 * float64(1+int(next()))
		case 4: // small negative integer
			x = -float64(1 + next()%16)
		case 5: // quantized runtime in seconds
			x = float64(1 + int(next())*60)
		case 6: // arbitrary finite bit pattern
			var raw [8]byte
			for i := range raw {
				raw[i] = next()
			}
			x = math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
		default: // positive value across many decades
			x = float64(1+int(next())) * math.Pow(10, float64(int(next()%16)-6))
		}
		out = append(out, x)
	}
	return out
}

// FuzzSampleStatistics pins the Sample fast paths to their per-point
// oracles on adversarial series: KS and AD from goodnessOfFit's one CDF
// table, and KSPolish (probe-first branch and bound, and the start KS it
// returns) against the full-scan descent. The candidates are fitted to the
// series' strictly positive points (no family fits a non-positive sample);
// each fitted law is then checked over both the positive points and the
// whole series, so ties at ±0 and out-of-support points reach the
// statistics.
func FuzzSampleStatistics(f *testing.F) {
	f.Add([]byte{5, 3, 0, 0, 5, 9, 7, 10, 4, 5, 40})
	f.Add([]byte{1, 2, 0, 5, 1, 5, 2, 0, 7, 3, 8, 7, 200, 12})
	f.Add([]byte{3, 1, 3, 255, 0, 4, 2, 7, 1, 0, 7, 9, 9})
	f.Add([]byte{6, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 6, 0, 0, 0, 0, 0, 0, 0, 0x40, 0, 5, 1})
	// Integer-second runtimes in long runs of ties (24 points, 7 distinct):
	// both AD cursors step through the shared table run by run.
	f.Add([]byte{5, 0, 0, 0, 0, 5, 1, 0, 0, 5, 3, 0, 0, 0, 0, 5, 0, 5, 7, 0, 5, 2, 0, 0, 5, 30, 0, 5, 4, 0, 0, 0})
	// Values across decades whose polish moves the incumbent's KS peak
	// (distinct value 4 → 6 for the exponential), so later candidates are
	// probed at a point the start did not peak at.
	f.Add([]byte{7, 3, 2, 7, 9, 2, 7, 1, 3, 7, 5, 2, 7, 40, 1, 7, 8, 3, 0, 7, 2, 4, 7, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		series := fuzzSeries(data)
		var pos []float64
		for _, x := range series {
			if x > 0 {
				pos = append(pos, x)
			}
		}
		whole, positive := NewSample(series), NewSample(pos)
		for _, fitter := range DefaultFitters() {
			d, err := fitter.Fit(positive)
			if err != nil {
				continue
			}
			for _, s := range []*Sample{positive, whole} {
				sorted := s.Sorted()
				ks, ad := gof(s, d)
				if want := ksStatisticPerPoint(d, sorted); math.Float64bits(ks) != math.Float64bits(want) {
					t.Fatalf("%v on %v: KS %v, per-point oracle %v", d, sorted, ks, want)
				}
				if want := adStatisticPerPoint(d, sorted); math.Float64bits(ad) != math.Float64bits(want) {
					t.Fatalf("%v on %v: AD %v, per-point oracle %v", d, sorted, ad, want)
				}
				p, ok := d.(Parametric)
				if !ok || s.N() == 0 {
					continue
				}
				gotD, gotKS, startKS, err := KSPolish(p, s, 5)
				if err != nil {
					t.Fatalf("%v on %v: KSPolish: %v", d, sorted, err)
				}
				wantD, wantKS := ksPolishFullScan(p, sorted, 5)
				if math.Float64bits(gotKS) != math.Float64bits(wantKS) || !reflect.DeepEqual(gotD, wantD) {
					t.Fatalf("%v on %v: KSPolish %v (KS %v), full scan %v (KS %v)", d, sorted, gotD, gotKS, wantD, wantKS)
				}
				if want := ksStatisticPerPoint(d, sorted); math.Float64bits(startKS) != math.Float64bits(want) {
					t.Fatalf("%v on %v: KSPolish start KS %v, per-point oracle %v", d, sorted, startKS, want)
				}
			}
		}
	})
}
