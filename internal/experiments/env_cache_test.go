package experiments

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/joblog"
)

// TestDerivedSeriesMemoized checks every derived-series accessor hands back
// the same computed object instead of re-deriving per caller, both for a
// constructed Env and for a bare &Env{D: d} literal. The job-order layer is
// the exception: it is shared only while a pass holds it and dropped after.
func TestDerivedSeriesMemoized(t *testing.T) {
	for name, e := range map[string]*Env{
		"constructed": env(t),
		"literal":     {D: env(t).D},
	} {
		if e.Orders() == e.Orders() {
			t.Errorf("%s: Orders kept outside a pass", name)
		}
		release := e.Pass()
		if e.Orders() != e.Orders() {
			t.Errorf("%s: Orders rebuilt inside a shared pass", name)
		}
		release()
		if e.cache.orders != nil {
			t.Errorf("%s: Orders kept after the pass released them", name)
		}
		m1, err1 := e.MTTI()
		m2, err2 := e.MTTI()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: MTTI: %v, %v", name, err1, err2)
		}
		if m1 != m2 {
			t.Errorf("%s: MTTI recomputed instead of memoized", name)
		}
		a1, err1 := e.Availability()
		a2, err2 := e.Availability()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Availability: %v, %v", name, err1, err2)
		}
		if a1 != a2 {
			t.Errorf("%s: Availability recomputed instead of memoized", name)
		}
		sv1, err1 := e.Survival()
		sv2, err2 := e.Survival()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: Survival: %v, %v", name, err1, err2)
		}
		if sv1 != sv2 {
			t.Errorf("%s: Survival recomputed instead of memoized", name)
		}
		f1, err1 := e.FamilyFits()
		f2, err2 := e.FamilyFits()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: FamilyFits: %v, %v", name, err1, err2)
		}
		if len(f1) == 0 || &f1[0] != &f2[0] {
			t.Errorf("%s: FamilyFits recomputed instead of memoized", name)
		}
		io1, err1 := e.IOBehavior()
		io2, err2 := e.IOBehavior()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: IOBehavior: %v, %v", name, err1, err2)
		}
		if io1 != io2 {
			t.Errorf("%s: IOBehavior recomputed instead of memoized", name)
		}
		p1, err1 := e.CohortProfileExpr(nil)
		p2, err2 := e.CohortProfileExpr(nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: whole-corpus profile: %v, %v", name, err1, err2)
		}
		if p1 != p2 {
			t.Errorf("%s: whole-corpus profile recomputed instead of memoized", name)
		}
		fi1, err1 := e.FatalIncidents()
		fi2, err2 := e.FatalIncidents()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: FatalIncidents: %v, %v", name, err1, err2)
		}
		if fi1.Len() == 0 || &fi1.First[0] != &fi2.First[0] {
			t.Errorf("%s: FatalIncidents recomputed instead of memoized", name)
		}
		wi1, err1 := e.WarnIncidents()
		wi2, err2 := e.WarnIncidents()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: WarnIncidents: %v, %v", name, err1, err2)
		}
		if wi1.Len() == 0 || &wi1.First[0] != &wi2.First[0] {
			t.Errorf("%s: WarnIncidents recomputed instead of memoized", name)
		}
	}
}

// TestDerivedSeriesCacheConcurrent hammers every cached accessor from many
// goroutines at once, inside one shared order pass; the memos must hand all of them the same object with no data race (run with -race).
func TestDerivedSeriesCacheConcurrent(t *testing.T) {
	e := env(t)
	const goroutines = 16
	type view struct {
		orders interface{}
		mtti   interface{}
		avail  interface{}
		surv   interface{}
		fits   []core.FamilyFit
		io     interface{}
	}
	views := make([]view, goroutines)
	release := e.Pass()
	defer release()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := &views[g]
			v.orders = e.Orders()
			v.mtti, _ = e.MTTI()
			v.avail, _ = e.Availability()
			v.surv, _ = e.Survival()
			v.fits, _ = e.FamilyFits()
			v.io, _ = e.IOBehavior()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if len(views[g].fits) == 0 || &views[g].fits[0] != &views[0].fits[0] {
			t.Fatalf("goroutine %d saw different FamilyFits", g)
		}
		if views[g].orders != views[0].orders || views[g].mtti != views[0].mtti || views[g].avail != views[0].avail ||
			views[g].surv != views[0].surv || views[g].io != views[0].io {
			t.Fatalf("goroutine %d saw a different memoized analysis", g)
		}
	}
}

// TestRaceEnvMemos starts every Env memo from cold at once: goroutines
// call each accessor on a fresh &Env{D: d} over a fresh Dataset, so the
// first build of every memo (and of the views and whole-table scan under
// it) is contended. Every caller must get the identical object.
func TestRaceEnvMemos(t *testing.T) {
	e := &Env{D: freshDataset(t, envCorpus(t))}
	const goroutines = 8
	type view struct {
		mtti           *core.MTTIResult
		avail          *core.AvailabilityResult
		surv           *core.SurvivalResult
		fits           []core.FamilyFit
		io             *core.IOCorrelation
		profile        *core.FusedProfile
		byUser, byProj *core.ConcentrationResult
		fatal, warn    core.Incidents
		errs           []error
	}
	views := make([]view, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(v *view) {
			defer wg.Done()
			<-start
			var err [10]error
			v.mtti, err[0] = e.MTTI()
			v.avail, err[1] = e.Availability()
			v.surv, err[2] = e.Survival()
			v.fits, err[3] = e.FamilyFits()
			v.io, err[4] = e.IOBehavior()
			v.profile, err[5] = e.fusedProfile()
			v.byUser, err[6] = e.Concentration(core.ByUser)
			v.byProj, err[7] = e.Concentration(core.ByProject)
			v.fatal, err[8] = e.FatalIncidents()
			v.warn, err[9] = e.WarnIncidents()
			v.errs = err[:]
		}(&views[g])
	}
	close(start)
	wg.Wait()
	for g := range views {
		for i, err := range views[g].errs {
			if err != nil {
				t.Fatalf("goroutine %d, accessor %d: %v", g, i, err)
			}
		}
	}
	sameIncidents := func(a, b core.Incidents) bool {
		return a.Len() > 0 && a.Len() == b.Len() && &a.First[0] == &b.First[0]
	}
	v0 := views[0]
	if v0.byUser.By != core.ByUser || v0.byProj.By != core.ByProject {
		t.Fatalf("Concentration groupings %v, %v; want user, project", v0.byUser.By, v0.byProj.By)
	}
	for g := 1; g < goroutines; g++ {
		v := views[g]
		if v.mtti != v0.mtti || v.avail != v0.avail || v.surv != v0.surv || v.io != v0.io ||
			v.profile != v0.profile || v.byUser != v0.byUser || v.byProj != v0.byProj {
			t.Errorf("goroutine %d saw a different memoized analysis", g)
		}
		if len(v.fits) == 0 || &v.fits[0] != &v0.fits[0] {
			t.Errorf("goroutine %d saw different FamilyFits", g)
		}
		if !sameIncidents(v.fatal, v0.fatal) || !sameIncidents(v.warn, v0.warn) {
			t.Errorf("goroutine %d saw a different incident stream", g)
		}
	}
}

// TestEnvCacheNilFallback checks an Env built without a constructor (a
// literal with a zero-value cache) serves every derived series with the
// same results as a constructed Env.
func TestEnvCacheNilFallback(t *testing.T) {
	cached := env(t)
	bare := &Env{D: cached.D}
	m, err := bare.MTTI()
	if err != nil {
		t.Fatal(err)
	}
	cm, _ := cached.MTTI()
	if m.Interruptions != cm.Interruptions {
		t.Errorf("literal MTTI interruptions %d != constructed %d", m.Interruptions, cm.Interruptions)
	}
	if _, err := bare.Availability(); err != nil {
		t.Errorf("literal Availability: %v", err)
	}
	if _, err := bare.Survival(); err != nil {
		t.Errorf("literal Survival: %v", err)
	}
	// The literal's Parallelism is 0, the constructed Env's the test's;
	// the fits are identical at any worker count.
	fits, err := bare.FamilyFits()
	if err != nil {
		t.Fatal(err)
	}
	cfits, _ := cached.FamilyFits()
	if !reflect.DeepEqual(fits, cfits) {
		t.Error("literal FamilyFits differ from constructed")
	}
	io, err := bare.IOBehavior()
	if err != nil {
		t.Fatal(err)
	}
	cio, _ := cached.IOBehavior()
	if !reflect.DeepEqual(io, cio) {
		t.Errorf("literal IOBehavior %+v != constructed %+v", io, cio)
	}
}

// TestLegacySampleEquivalenceOnExperimentSeries pins the Sample contract on
// the real E6/E12/E22 inputs: for each series' winning family, KSPolish must
// land on the same parameters and KS bits whether the Sample is built from
// the raw series, from a pre-sorted copy, or is the one the Env memoizes and
// shares between experiments.
func TestLegacySampleEquivalenceOnExperimentSeries(t *testing.T) {
	e := env(t)
	series := map[string][]float64{}
	shared := map[string]*dist.Sample{}

	// E6 input: failed-job runtimes of the largest exit family.
	for _, fam := range joblog.FailureFamilies() {
		if s := samplesOf(e, fam, 5000); len(s) >= 100 {
			series["e6_"+string(fam)] = s
			break
		}
	}
	// E12 input: interruption intervals.
	if m, err := e.MTTI(); err == nil && len(m.Intervals) >= 10 {
		series["e12_intervals"] = m.Intervals
		shared["e12_intervals"] = m.IntervalSample
	}
	// E22 input: repair durations.
	if a, err := e.Availability(); err == nil && len(a.RepairHours) >= 30 {
		series["e22_repairs"] = a.RepairHours
		shared["e22_repairs"] = a.RepairSample
	}
	if len(series) < 3 {
		t.Fatalf("expected all three experiment series, got %d", len(series))
	}

	for name, data := range series {
		fresh := dist.NewSample(data)
		best, err := dist.SelectBest(fresh, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, ok := best.Dist.(dist.Parametric)
		if !ok {
			continue
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		samples := map[string]*dist.Sample{
			"NewSample":       fresh,
			"NewSampleSorted": dist.NewSampleSorted(sorted),
		}
		if s := shared[name]; s != nil {
			samples["shared"] = s
		}
		wantD, wantKS, _, err := dist.KSPolish(p, dist.NewSample(data), 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for via, s := range samples {
			gotD, gotKS, _, err := dist.KSPolish(p, s, 10)
			if err != nil {
				t.Fatalf("%s via %s: %v", name, via, err)
			}
			if math.Float64bits(gotKS) != math.Float64bits(wantKS) {
				t.Errorf("%s via %s: KS %v, want %v", name, via, gotKS, wantKS)
			}
			if !reflect.DeepEqual(gotD, wantD) {
				t.Errorf("%s via %s: polished to %+v, want %+v", name, via, gotD, wantD)
			}
		}
	}
}
