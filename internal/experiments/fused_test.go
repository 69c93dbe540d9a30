package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/sim"
)

// renderAll renders every table and figure of a result into one byte
// stream, mirroring what mirareport prints.
func renderAll(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tab := range res.Tables {
		if err := tab.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, fig := range res.Figures {
		if err := fig.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The small corpus is generated once, for the suite-level test.
var small par.Memo[*sim.Corpus]

func smallCorpus(tb testing.TB) *sim.Corpus {
	tb.Helper()
	c, err := small.Get(func() (*sim.Corpus, error) { return sim.Generate(sim.SmallConfig()) })
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// freshDataset indexes c anew, so the Dataset's memoized scan state is
// built at the caller's worker count.
func freshDataset(tb testing.TB, c *sim.Corpus) *core.Dataset {
	tb.Helper()
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// accessorOracles pairs every Env accessor layered on the memoized incident
// and MTTI passes, and the whole-corpus cohort profile, with a walk that
// computes the same result afresh: each calls the core analysis directly,
// with the arguments the experiments use. The fused profile's own fields
// are compared with their reference walks in core (TestFusedScanMatchesLegacy
// and TestCohortConcentrationMatchesWalk).
var accessorOracles = []struct {
	name  string
	fused func(e *Env) (any, error)
	walk  func(e *Env) (any, error)
}{
	{"LeadTimes",
		func(e *Env) (any, error) { return e.LeadTimes(e16Lookbacks) },
		func(e *Env) (any, error) {
			fatals, err := e.D.FilterFatal(core.DefaultFilterRule())
			if err != nil {
				return nil, err
			}
			warns, err := e.D.FilterWarn(core.DefaultFilterRule())
			if err != nil {
				return nil, err
			}
			rs := make([]*core.LeadTimeResult, len(e16Lookbacks))
			for i, lb := range e16Lookbacks {
				opt := core.DefaultLeadTimeOptions()
				opt.Lookback = lb
				r, err := e.D.LeadTimeSweep(fatals, warns, []core.LeadTimeOptions{opt})
				if err != nil {
					return nil, err
				}
				rs[i] = r[0]
			}
			return rs, nil
		}},
	{"LifePhases",
		func(e *Env) (any, error) { return e.LifePhases(e18Phases) },
		func(e *Env) (any, error) {
			mtti, err := e.D.MTTI(core.DefaultFilterRule())
			if err != nil {
				return nil, err
			}
			return e.D.LifePhasesFromMTTI(e18Phases, mtti)
		}},
	{"SpatialCorr/1h",
		func(e *Env) (any, error) { return e.SpatialCorr(time.Hour) },
		func(e *Env) (any, error) { return spatialCorrWalk(e.D, time.Hour) }},
	{"SpatialCorr/24h",
		func(e *Env) (any, error) { return e.SpatialCorr(24 * time.Hour) },
		func(e *Env) (any, error) { return spatialCorrWalk(e.D, 24*time.Hour) }},
	{"CohortProfileExpr/nil",
		func(e *Env) (any, error) { return e.CohortProfileExpr(nil) },
		func(e *Env) (any, error) {
			p, err := e.D.FusedScan(e.Parallelism)
			if err != nil {
				return nil, err
			}
			return &p.Cohort, nil
		}},
}

// spatialCorrWalk is the E21 analysis over a fresh FATAL filter pass,
// bypassing the Env's memoized incident stream.
func spatialCorrWalk(d *core.Dataset, window time.Duration) (*core.SpatialCorrResult, error) {
	fatals, err := d.FilterFatal(core.DefaultFilterRule())
	if err != nil {
		return nil, err
	}
	return d.SpatialCorrelationIncidents(fatals, window)
}

// The E16 lookbacks and E18 phase count the oracle table evaluates.
var (
	e16Lookbacks = []time.Duration{time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour}
	e18Phases    = 8
)

// TestAccessorsMatchWalks is the memoized accessors' equivalence contract:
// every accessor returns exactly what its walk computes, at several worker
// counts. Floats must match bit for bit (NaN equals NaN — "undefined" is a
// deterministic outcome too). It runs on the 150-day corpus.
func TestAccessorsMatchWalks(t *testing.T) {
	c := envCorpus(t)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		e := NewEnvFromDataset(freshDataset(t, c))
		e.Parallelism = workers
		for _, o := range accessorOracles {
			got, gotErr := o.fused(e)
			want, wantErr := o.walk(e)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("workers=%d %s: error %v, walk %v", workers, o.name, gotErr, wantErr)
				continue
			}
			if diff := bitDiff(reflect.ValueOf(got), reflect.ValueOf(want), o.name); diff != "" {
				t.Errorf("workers=%d: fused accessor differs from the walk at %s", workers, diff)
			}
		}
	}
}

// bitDiff returns the path of the first difference between a and b, or ""
// when they are deeply equal with every float compared bit for bit, except
// that NaN equals NaN. Unlike reflect.DeepEqual it reads unexported fields
// and treats two NaNs as equal.
func bitDiff(a, b reflect.Value, path string) string {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return path
	}
	if !a.IsValid() {
		return ""
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		x, y := a.Float(), b.Float()
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return fmt.Sprintf("%s (%v vs %v)", path, x, y)
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s (%d vs %d)", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return path
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s (%q vs %q)", path, a.String(), b.String())
		}
	case reflect.Pointer, reflect.Interface:
		if a.Kind() == reflect.Pointer && a.Pointer() == b.Pointer() {
			return ""
		}
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		return bitDiff(a.Elem(), b.Elem(), path)
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len())
		}
		iter := a.MapRange()
		for iter.Next() {
			bv := b.MapIndex(iter.Key())
			if d := bitDiff(iter.Value(), bv, fmt.Sprintf("%s[%v]", path, iter.Key())); d != "" {
				return d
			}
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	default:
		return path + " (uncomparable kind " + a.Kind().String() + ")"
	}
	return ""
}

// BenchmarkAccessors measures what the Env's memos buy: one iteration
// evaluates every accessor of the oracle table on a cold Env over a freshly
// indexed 150-day Dataset, either through the walks or through the
// accessors (one shared scan plus the memoized incident and MTTI passes).
// Indexing the Dataset is outside the timer; everything it builds lazily
// (column views, scan state, filter keys) is inside it. The walk-vs-fused
// pair for the profile's own fields is core's BenchmarkProfile.
func BenchmarkAccessors(b *testing.B) {
	c := envCorpus(b)
	for _, mode := range []string{"walk", "fused"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := NewEnvFromDataset(freshDataset(b, c))
				e.Parallelism = 1
				b.StartTimer()
				for _, o := range accessorOracles {
					f := o.fused
					if mode == "walk" {
						f = o.walk
					}
					if _, err := f(e); err != nil {
						b.Fatalf("%s: %v", o.name, err)
					}
				}
			}
		})
	}
}

// TestRunAllRenderedAcrossWorkers is the suite-level determinism contract:
// the full E1–E23 suite, each pass over its own Dataset and Env, renders
// byte-identically and reports bit-identical metrics at every worker count.
func TestRunAllRenderedAcrossWorkers(t *testing.T) {
	var ref []*Result
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		e := NewEnvFromDataset(freshDataset(t, smallCorpus(t)))
		e.Parallelism = workers
		got, err := RunAll(e, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("workers=%d: %d results, workers=1 has %d", workers, len(got), len(ref))
		}
		for i := range ref {
			r, g := ref[i], got[i]
			if r.ID != g.ID {
				t.Fatalf("workers=%d: result %d is %s, workers=1 has %s", workers, i, g.ID, r.ID)
			}
			if diff := bitDiff(reflect.ValueOf(g.Metrics), reflect.ValueOf(r.Metrics), r.ID+" metrics"); diff != "" {
				t.Errorf("workers=%d: %s differs from workers=1", workers, diff)
			}
			if !bytes.Equal(renderAll(t, g), renderAll(t, r)) {
				t.Errorf("workers=%d %s: rendered output differs from workers=1", workers, r.ID)
			}
		}
	}
}

// TestFusedAccessorsNilCache pins the constructor-less Env: the fused
// profile and the memoized incidents must work on an Env literal
// (zero-value cache) and match a constructed Env.
func TestFusedAccessorsNilCache(t *testing.T) {
	cfg := sim.SmallConfig()
	c, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	bare := &Env{D: d, Parallelism: 1}
	cached := NewEnvFromDataset(d)
	cached.Parallelism = 1

	bareProfile, err := bare.fusedProfile()
	if err != nil {
		t.Fatal(err)
	}
	cachedProfile, err := cached.fusedProfile()
	if err != nil {
		t.Fatal(err)
	}
	if bareProfile.Summary != cachedProfile.Summary {
		t.Errorf("summary: bare %+v, cached %+v", bareProfile.Summary, cachedProfile.Summary)
	}
	if bareProfile.Exit != cachedProfile.Exit {
		t.Errorf("exit tally: bare %+v, cached %+v", bareProfile.Exit, cachedProfile.Exit)
	}
	bareFatals, err := bare.FatalIncidents()
	if err != nil {
		t.Fatal(err)
	}
	cachedFatals, err := cached.FatalIncidents()
	if err != nil {
		t.Fatal(err)
	}
	if bareFatals.Len() != cachedFatals.Len() {
		t.Errorf("fatal incidents: bare %d, cached %d", bareFatals.Len(), cachedFatals.Len())
	}
	if again, _ := cached.FatalIncidents(); &again.First[0] != &cachedFatals.First[0] {
		t.Error("cached fatal incidents not memoized")
	}
}

// TestMetricsTableHelpers covers the shared metric helpers safeDiv and
// boolMetric.
func TestMetricsTableHelpers(t *testing.T) {
	if safeDiv(6, 3) != 2 || safeDiv(1, 0) != 0 {
		t.Error("safeDiv")
	}
	if boolMetric(true) != 1 || boolMetric(false) != 0 {
		t.Error("boolMetric")
	}
}
