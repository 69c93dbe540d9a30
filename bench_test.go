// Package repro's root benchmark harness regenerates every table and
// figure of the paper (experiments E1–E23) and reports the headline
// metrics via b.ReportMetric, plus micro-benchmarks of the substrates
// (corpus generation, CSV codecs, event filtering, distribution fitting,
// the partition allocator and the scheduler).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/sched"
	"repro/internal/sel"
	"repro/internal/serve"
	"repro/internal/sim"
)

// benchDays sizes the shared corpus: 150 days ≈ 26k jobs / 95k events,
// large enough that every analysis is statistically meaningful and every
// bench measures realistic work.
const benchDays = 150

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func sharedEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := sim.DefaultConfig()
		cfg.Days = benchDays
		cfg.NumUsers = 300
		cfg.NumProjects = 120
		benchEnv, benchErr = experiments.NewEnv(cfg, 0)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// benchExperiment regenerates one paper artifact per iteration and reports
// selected metrics alongside the timing. Each iteration runs on a fresh Env
// over the shared Dataset, as each mirabench paper-suite pass does, so the
// analyses an Env memoizes (E6's fits, MTTI, survival) are timed in every
// iteration rather than only the first.
func benchExperiment(b *testing.B, id string, metricKeys ...string) {
	env := sharedEnv(b)
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var last *experiments.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &experiments.Env{D: env.D, Parallelism: env.Parallelism}
		res, err := exp.Run(fresh)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	for _, k := range metricKeys {
		if v, ok := last.Metrics[k]; ok {
			b.ReportMetric(v, k)
		}
	}
}

// One benchmark per table/figure of the evaluation (DESIGN.md §4).

func Benchmark_E1_DatasetSummary(b *testing.B) { benchExperiment(b, "E1", "core_hours_b", "jobs") }
func Benchmark_E2_Concentration(b *testing.B)  { benchExperiment(b, "E2", "gini_jobs_user") }
func Benchmark_E3_JobStructure(b *testing.B)   { benchExperiment(b, "E3", "mean_nodes") }
func Benchmark_E4_FailureBreakdown(b *testing.B) {
	benchExperiment(b, "E4", "failures", "user_share")
}
func Benchmark_E5_ExecLengthCDF(b *testing.B) { benchExperiment(b, "E5", "ks_two_sample") }
func Benchmark_E6_DistributionFits(b *testing.B) {
	benchExperiment(b, "E6", "ks_error", "ks_segfault")
}
func Benchmark_E7_UserCorrelation(b *testing.B) { benchExperiment(b, "E7", "cramers_v_user") }
func Benchmark_E8_StructureTrends(b *testing.B) { benchExperiment(b, "E8", "trend_nodes") }
func Benchmark_E9_RASProfile(b *testing.B)      { benchExperiment(b, "E9", "fatal_share") }
func Benchmark_E10_Locality(b *testing.B)       { benchExperiment(b, "E10", "gini_midplane") }
func Benchmark_E11_FilterSweep(b *testing.B) {
	benchExperiment(b, "E11", "incidents_20m_temporal+spatial+msg")
}
func Benchmark_E12_MTTI(b *testing.B)       { benchExperiment(b, "E12", "mtti_days", "interruptions") }
func Benchmark_E13_IOBehavior(b *testing.B) { benchExperiment(b, "E13", "median_ratio") }
func Benchmark_E14_Temporal(b *testing.B)   { benchExperiment(b, "E14", "diurnal_ratio") }
func Benchmark_E15_Interrupts(b *testing.B) {
	benchExperiment(b, "E15", "pearson_ch_interrupts")
}
func Benchmark_E16_Precursors(b *testing.B) { benchExperiment(b, "E16", "coverage_12h") }
func Benchmark_E17_Scheduling(b *testing.B) { benchExperiment(b, "E17", "pearson_req_used") }
func Benchmark_E18_Bathtub(b *testing.B)    { benchExperiment(b, "E18", "mid_life_mtti") }
func Benchmark_E19_Waste(b *testing.B)      { benchExperiment(b, "E19", "wasted_share") }
func Benchmark_E20_Resubmission(b *testing.B) {
	benchExperiment(b, "E20", "p_fail_after_fail", "lift")
}
func Benchmark_E21_TorusCorrelation(b *testing.B) {
	benchExperiment(b, "E21", "nbr_share_close_1h")
}
func Benchmark_E22_Availability(b *testing.B) {
	benchExperiment(b, "E22", "availability")
}
func Benchmark_E23_Survival(b *testing.B) { benchExperiment(b, "E23", "s_1h") }

// Paired serial/parallel benchmarks of the worker-pool substrates. Each
// parallel variant times one serial pass outside the timer and reports
// "speedup" — serial time over parallel per-iteration time — so a single
// run shows the fan-out win. On a single-core runner the ratio sits near
// 1.0 by construction: the parallel path does identical work, and the
// equivalence tests prove it produces identical output.

func BenchmarkCorpusGenerationSerial(b *testing.B)   { benchGenerate(b, 1) }
func BenchmarkCorpusGenerationParallel(b *testing.B) { benchGenerate(b, 0) }

func benchGenerate(b *testing.B, workers int) {
	cfg := sim.DefaultConfig()
	cfg.Days = benchDays
	serial := timeOnce(b, func() {
		if _, err := sim.GenerateParallel(cfg, 1); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sim.GenerateParallel(cfg, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Jobs) == 0 {
			b.Fatal("empty corpus")
		}
	}
	reportSpeedup(b, serial)
}

func BenchmarkFitAllSerial(b *testing.B)   { benchFitAll(b, 1) }
func BenchmarkFitAllParallel(b *testing.B) { benchFitAll(b, 0) }

func benchFitAll(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(11))
	w, err := dist.NewWeibull(0.62, 2100)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float64, 20000)
	for i := range data {
		data[i] = w.Rand(rng)
	}
	serial := timeOnce(b, func() { dist.FitAll(dist.NewSample(data), nil, 1) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := dist.FitAll(dist.NewSample(data), nil, workers)
		if results[0].Err != nil {
			b.Fatal(results[0].Err)
		}
	}
	reportSpeedup(b, serial)
}

func BenchmarkFilterSweepSerial(b *testing.B)   { benchFilterSweep(b, 1) }
func BenchmarkFilterSweepParallel(b *testing.B) { benchFilterSweep(b, 0) }

func benchFilterSweep(b *testing.B, workers int) {
	env := sharedEnv(b)
	base := core.DefaultFilterRule()
	windows := []time.Duration{
		30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute,
		10 * time.Minute, 20 * time.Minute, 40 * time.Minute, time.Hour,
		2 * time.Hour, 6 * time.Hour,
	}
	serial := timeOnce(b, func() {
		if _, err := env.D.FilterSweep(base, windows, 1); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := env.D.FilterSweep(base, windows, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != len(windows) {
			b.Fatal("short sweep")
		}
	}
	reportSpeedup(b, serial)
}

func BenchmarkRunAllSerial(b *testing.B)   { benchRunAll(b, 1) }
func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }

// benchRunAll reuses the shared env across iterations, so its memoized
// profiles stay warm — it measures suite overhead on a hot cache.
// Benchmark_RunAll_Fused below measures cold-Env runs.
func benchRunAll(b *testing.B, workers int) {
	env := sharedEnv(b)
	serial := timeOnce(b, func() {
		if _, err := experiments.RunAll(env, 1); err != nil {
			b.Fatal(err)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunAll(env, workers)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(experiments.All()) {
			b.Fatal("short suite")
		}
	}
	reportSpeedup(b, serial)
}

// Benchmark_RunAll_Fused times the full E1–E23 suite on a cold Env over a
// warm Dataset. Each iteration builds a fresh Env over the shared dataset,
// so every Env memoization is cold and the timing covers the complete cost
// of regenerating the paper from the Dataset's indexes and memoized scan
// state. BenchmarkAccessors in internal/experiments measures what fusion
// buys against the reference walks.
func Benchmark_RunAll_Fused(b *testing.B) {
	d := sharedEnv(b).D
	run := func() {
		env := experiments.NewEnvFromDataset(d)
		env.Parallelism = 1
		results, err := experiments.RunAll(env, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(experiments.All()) {
			b.Fatal("short suite")
		}
	}
	// One untimed pass builds the dataset's lazy caches (column views,
	// interned filter keys, the whole-table scan state) — the benchmark
	// contract is a cold Env over a warm Dataset. Then collect the warm-up
	// garbage outside the timer.
	run()
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// Paired cohort-query benchmarks (DESIGN.md §14). One iteration answers a
// sweep of monthly cohort queries — each window constrains both job submit
// times and event times — either by materializing the filtered dataset and
// scanning it (the pre-index path) or by pushing the compiled bitmap
// selections straight into the cohort scan. Both report "speedup" against
// a median materialize reference pass, so the Materialize variant sits
// near 1.0 by construction and the Where variant shows the pushdown win.
// The core equivalence suite proves the two paths produce identical
// cohorts.

func Benchmark_CohortSweep_Materialize(b *testing.B) { benchCohortSweep(b, true) }
func Benchmark_CohortSweep_Where(b *testing.B)       { benchCohortSweep(b, false) }

// cohortSweepExprs builds the monthly submit+time window predicates over
// the shared corpus' span.
func cohortSweepExprs(b *testing.B, d *core.Dataset) []sel.Expr {
	b.Helper()
	start, end := d.Span()
	var exprs []sel.Expr
	for lo := start; lo.Before(end); lo = lo.AddDate(0, 1, 0) {
		hi := lo.AddDate(0, 1, 0)
		a, z := lo.Format("2006-01-02"), hi.Format("2006-01-02")
		e, err := sel.Parse(fmt.Sprintf(
			"submit >= %s and submit < %s and time >= %s and time < %s", a, z, a, z))
		if err != nil {
			b.Fatal(err)
		}
		exprs = append(exprs, e)
	}
	return exprs
}

func benchCohortSweep(b *testing.B, materialize bool) {
	d := sharedEnv(b).D
	exprs := cohortSweepExprs(b, d)
	run := func(materialize bool) {
		for _, e := range exprs {
			var c *core.Cohort
			var err error
			if materialize {
				var md *core.Dataset
				var p *core.FusedProfile
				if md, err = d.MaterializeWhere(e); err == nil {
					if p, err = md.FusedScan(1); err == nil {
						c = &p.Cohort
					}
				}
			} else {
				c, err = d.FusedScanWhere(e, 1)
			}
			if err != nil {
				b.Fatal(err)
			}
			if c.Summary.Jobs == 0 {
				b.Fatal("empty cohort window")
			}
		}
	}
	// Median of three materialize passes is the reference; the passes also
	// warm the compiled-selection cache both variants share.
	passes := make([]time.Duration, 3)
	for i := range passes {
		passes[i] = timeOnce(b, func() { run(true) })
	}
	slices.Sort(passes)
	ref := passes[1]
	run(materialize)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(materialize)
	}
	reportSpeedup(b, ref)
}

// Paired serving benchmarks (DESIGN.md §15). One iteration answers the
// monthly cohort sweep through the full mirad request path — router,
// limiter, predicate parse, LRU, JSON body — via direct ServeHTTP calls
// (no sockets, so the numbers isolate the serving layer). The Cold
// variant drops the cache every iteration, paying parse + pushdown scan +
// render per query; the Warm variant primes the cache once and then
// serves rendered bytes. Both report "speedup" against a median cold
// reference pass, so Cold sits near 1.0 by construction and Warm shows
// the cache win (the acceptance floor is 20×). The serve endpoint tests
// prove cold and warm responses are byte-identical.

func Benchmark_CohortServe_Cold(b *testing.B) { benchCohortServe(b, false) }
func Benchmark_CohortServe_Warm(b *testing.B) { benchCohortServe(b, true) }

func benchCohortServe(b *testing.B, warm bool) {
	env := sharedEnv(b)
	srv := serve.New(env, serve.Options{Parallelism: 1})
	if _, err := srv.Warm(); err != nil {
		b.Fatal(err)
	}
	var targets []string
	for _, e := range cohortSweepExprs(b, env.D) {
		targets = append(targets, "/v1/cohort?where="+url.QueryEscape(e.String()))
	}
	h := srv.Handler()
	run := func(cold bool) {
		if cold {
			srv.ResetCache()
		}
		for _, target := range targets {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("%s: %d %s", target, rec.Code, rec.Body.String())
			}
		}
	}
	// Median of three cold passes is the reference; they also leave the
	// cache primed for the warm variant's timed loop.
	passes := make([]time.Duration, 3)
	for i := range passes {
		passes[i] = timeOnce(b, func() { run(true) })
	}
	slices.Sort(passes)
	ref := passes[1]
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(!warm)
	}
	reportSpeedup(b, ref)
}

// timeOnce times a single serial pass outside the benchmark timer, for the
// speedup metric of the parallel variants.
func timeOnce(b *testing.B, fn func()) time.Duration {
	b.Helper()
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// reportSpeedup reports serial-time over per-iteration time.
func reportSpeedup(b *testing.B, serial time.Duration) {
	b.Helper()
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(serial.Nanoseconds())/perIter, "speedup")
	}
}

// Substrate micro-benchmarks.

// BenchmarkCorpusGeneration measures end-to-end synthesis of a 30-day
// corpus (workload + scheduler + faults + logs).
func BenchmarkCorpusGeneration30d(b *testing.B) {
	cfg := sim.SmallConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		c, err := sim.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Jobs) == 0 {
			b.Fatal("empty corpus")
		}
	}
}

// BenchmarkJobCSVRoundTrip measures the scheduler-log codec throughput.
func BenchmarkJobCSVRoundTrip(b *testing.B) {
	env := sharedEnv(b)
	jobs := env.D.JobRecords()[:10000]
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := joblog.WriteCSV(&buf, jobs); err != nil {
			b.Fatal(err)
		}
		back, err := joblog.ReadCSV(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(back) != len(jobs) {
			b.Fatal("row count mismatch")
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkRASCSVRoundTrip measures the RAS-log codec throughput.
func BenchmarkRASCSVRoundTrip(b *testing.B) {
	env := sharedEnv(b)
	events := env.D.EventRecords()
	events = events[:min(len(events), 20000)]
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := raslog.WriteCSV(&buf, events); err != nil {
			b.Fatal(err)
		}
		back, err := raslog.ReadCSV(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(back) != len(events) {
			b.Fatal("row count mismatch")
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkRASDecode contrasts slurp decoding with the streaming Scanner
// (the decode ablation in DESIGN.md §6).
func BenchmarkRASDecode(b *testing.B) {
	env := sharedEnv(b)
	n := min(env.D.EventView().N, 20000)
	var buf bytes.Buffer
	if err := raslog.WriteCSV(&buf, env.D.EventRecords()[:n]); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.Run("slurp", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			events, err := raslog.ReadCSV(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if len(events) != n {
				b.Fatal("count mismatch")
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc, err := raslog.NewScanner(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			count := 0
			for sc.Scan() {
				count++
			}
			if err := sc.Err(); err != nil {
				b.Fatal(err)
			}
			if count != n {
				b.Fatal("count mismatch")
			}
		}
	})
}

// BenchmarkFilterFatal measures similarity filtering of the FATAL events in
// the corpus' raw RAS stream (the mirafilter path: severity scan, key
// interning and coalesce on every call), per rule (the E11 ablation).
func BenchmarkFilterFatal(b *testing.B) {
	env := sharedEnv(b)
	events := env.D.EventRecords()
	rules := []struct {
		name string
		rule core.FilterRule
	}{
		{"temporal", core.FilterRule{Window: 20 * time.Minute, Spatial: machine.LevelSystem}},
		{"spatial", core.FilterRule{Window: 20 * time.Minute, Spatial: machine.LevelMidplane}},
		{"spatial+msg", core.FilterRule{Window: 20 * time.Minute, Spatial: machine.LevelMidplane, SameMessage: true}},
	}
	for _, r := range rules {
		b.Run(r.name, func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				incidents, err := core.FilterBySeverity(events, raslog.Fatal, r.rule)
				if err != nil {
					b.Fatal(err)
				}
				n = incidents.Len()
			}
			b.ReportMetric(float64(n), "incidents")
		})
	}
}

// BenchmarkFitters measures MLE fitting per family on 10k samples. Each
// iteration builds its own Sample, so the sort and sufficient-statistic
// passes count towards every family's fit.
func BenchmarkFitters(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w, err := dist.NewWeibull(0.62, 2100)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float64, 10000)
	for i := range data {
		data[i] = w.Rand(rng)
	}
	for _, f := range dist.DefaultFitters() {
		b.Run(f.FamilyName(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Fit(dist.NewSample(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelSelection measures full KS-ranked model selection.
func BenchmarkModelSelection(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p, err := dist.NewPareto(45, 1.25)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float64, 5000)
	for i := range data {
		data[i] = p.Rand(rng)
	}
	for i := 0; i < b.N; i++ {
		if _, err := dist.SelectBest(dist.NewSample(data), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocator measures block alloc/free cycles under fragmentation.
func BenchmarkAllocator(b *testing.B) {
	sizes := []int{512, 1024, 2048, 4096, 8192}
	a := machine.NewAllocator()
	rng := rand.New(rand.NewSource(3))
	var live []machine.Block
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			if blk, ok := a.Alloc(sizes[rng.Intn(len(sizes))]); ok {
				live = append(live, blk)
			}
		} else {
			j := rng.Intn(len(live))
			if err := a.Free(live[j]); err != nil {
				b.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
		}
	}
}

// BenchmarkSchedulerPolicies contrasts FCFS and EASY backfill on the same
// synthetic queue (the scheduler ablation in DESIGN.md §6).
func BenchmarkSchedulerPolicies(b *testing.B) {
	for _, policy := range []sched.Policy{sched.FCFS, sched.EASYBackfill} {
		b.Run(policy.String(), func(b *testing.B) {
			var makespan time.Duration
			for i := 0; i < b.N; i++ {
				makespan = runSchedulerWorkload(b, policy)
			}
			b.ReportMetric(makespan.Hours(), "makespan_h")
		})
	}
}

func runSchedulerWorkload(b *testing.B, policy sched.Policy) time.Duration {
	b.Helper()
	s := sched.New(policy)
	t0 := time.Date(2013, 4, 9, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(4))
	sizes := []int{512, 1024, 2048, 4096, 8192, 16384, 32768}
	type active struct {
		id  int64
		end time.Time
	}
	var running []active
	now := t0
	const jobs = 500
	for id := int64(1); id <= jobs; id++ {
		if err := s.Submit(id, sizes[rng.Intn(len(sizes))], time.Duration(1+rng.Intn(4))*time.Hour, now); err != nil {
			b.Fatal(err)
		}
	}
	for {
		for _, d := range s.Schedule(now) {
			running = append(running, active{id: d.JobID, end: now.Add(time.Duration(30+rng.Intn(90)) * time.Minute)})
		}
		if len(running) == 0 {
			break
		}
		earliest := 0
		for i := range running {
			if running[i].end.Before(running[earliest].end) {
				earliest = i
			}
		}
		now = running[earliest].end
		if err := s.Complete(running[earliest].id); err != nil {
			b.Fatal(err)
		}
		running = append(running[:earliest], running[earliest+1:]...)
	}
	if s.QueueLen() != 0 {
		b.Fatalf("%s left %d queued", policy, s.QueueLen())
	}
	return now.Sub(t0)
}

// BenchmarkTakeaways measures the 22 takeaways on their own. Each
// iteration takes a fresh Env over the shared dataset, so the analyses the
// takeaways quote run every time instead of coming from the Env's memos.
func BenchmarkTakeaways(b *testing.B) {
	shared := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		env := experiments.NewEnvFromDataset(shared.D)
		env.Parallelism = shared.Parallelism
		ts, err := experiments.Takeaways(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(ts) != 22 {
			b.Fatalf("got %d takeaways", len(ts))
		}
	}
}
