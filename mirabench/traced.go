package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pack"
	"repro/internal/sel"
	"repro/internal/serve"
)

// Sizes of the traced replays. They bound the traced run's length, not
// any end-to-end figure.
const (
	packReps    = 3   // decodes and loads of the snapshot
	scanReps    = 3   // whole-corpus FusedScan calls
	missPerKind = 10  // replayed miss requests per shape
	hitReps     = 400 // replayed hits per hot predicate pass
)

// Request ids of replayed requests, by replay.
const (
	reqMiss = 1 << 50
	reqHit  = 2 << 50
	reqRT   = 3 << 50
)

// tracer is one traced run: the span recorder plus what the metrics
// derived from the spans need to know about each replayed request.
type tracer struct {
	rec      *recorder
	rep      *report
	reqShape map[int64]int
	// Per replayed miss: selection fractions, allocated bytes per scan
	// and the miss's unattributed time.
	jobFrac, evFrac [][]float64
	scanAlloc       []float64
	missOverhead    []float64
}

// runTraced replays the seed's inputs through each layer's public calls
// with spans recorded, then measures the workload in alternating untraced
// and traced phases to report tracing overhead. It prints every per-layer
// metric and writes the spans to .bench_build/traces/.
func runTraced(o options, w workload, dir string, rep *report) error {
	t := &tracer{rec: newRecorder(), rep: rep, reqShape: map[int64]int{},
		jobFrac: make([][]float64, len(shapes)), evFrac: make([][]float64, len(shapes))}
	if err := t.packLayers(dir); err != nil {
		return err
	}
	if err := t.indexLayers(dir); err != nil {
		return err
	}
	dm, _, err := startDaemon(dir, t.rec)
	if err != nil {
		return err
	}
	defer dm.close()
	for i := 0; i < scanReps; i++ {
		sp := t.rec.begin("core.FusedScan", -1, 0)
		_, err := dm.d.FusedScan(scanWorkers)
		t.rec.end(sp)
		if err != nil {
			return err
		}
	}
	qs, err := missInputs(dm.d, o.seed, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return err
	}
	stats0, err := cacheStats(dm)
	if err != nil {
		return err
	}
	replayed, err := t.missReplay(dm, qs)
	if err != nil {
		return err
	}
	hot, bodies, err := primeHot(dm, o.seed, rep)
	if err != nil {
		return err
	}
	if err := t.hitReplay(dm, hot); err != nil {
		return err
	}
	if err := t.suiteReplay(dm.d); err != nil {
		return err
	}
	if w.name == "paper-suite" {
		// No cohort traffic in this workload: the cache figures cover the
		// miss and hit replays.
		stats1, err := cacheStats(dm)
		if err != nil {
			return err
		}
		t.addCacheStats(stats0, stats1)
	}
	if err := t.overhead(o, w, dm, qs[replayed:], hot, bodies); err != nil {
		return err
	}
	t.addLayerMetrics()
	tdir := filepath.Join(o.root, ".bench_build", "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := writeSpans(path, t.rec.spans); err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(t.rec.spans), path)
	return nil
}

// packLayers times pack.Unmarshal on bytes already read and pack.LoadDir.
func (t *tracer) packLayers(dir string) error {
	raw, err := os.ReadFile(pack.SnapshotPath(dir))
	if err != nil {
		return err
	}
	for i := 0; i < packReps; i++ {
		sp := t.rec.begin("pack.Unmarshal", -1, 0)
		_, err := pack.Unmarshal(raw)
		t.rec.end(sp)
		if err != nil {
			return err
		}
		freeMemory()
	}
	raw = nil
	for i := 0; i < packReps; i++ {
		sp := t.rec.begin("pack.LoadDir", -1, 0)
		_, err := pack.LoadDir(dir, pack.FormatPack)
		t.rec.end(sp)
		if err != nil {
			return err
		}
		freeMemory()
	}
	return nil
}

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// indexColumns are the selection-index dimensions in IndexStats order,
// each with a predicate whose first compilation builds that dimension.
func indexColumns(d *core.Dataset) []struct{ col, where string } {
	jv, ev := d.JobView(), d.EventView()
	f := factsOf(d)
	return []struct{ col, where string }{
		{"user", fmt.Sprintf("user == %q", jv.Users[0])},
		{"project", fmt.Sprintf("project == %q", jv.Projects[0])},
		{"exit", "exit == success"},
		{"submit", "submit >= " + stamp(f.firstSubmit+30*day)},
		{"sev", "sev == FATAL"},
		{"cat", fmt.Sprintf("cat == %q", ev.Cats[0])},
		{"comp", fmt.Sprintf("comp == %q", ev.Comps[0])},
		{"midplane", "midplane == R00-M0"},
		{"rack", "rack == R00"},
	}
}

// indexLayers times the first selection per dimension on a freshly loaded
// Dataset, which builds that dimension's index.
func (t *tracer) indexLayers(dir string) error {
	d, err := pack.LoadDir(dir, pack.FormatPack)
	if err != nil {
		return err
	}
	for _, c := range indexColumns(d) {
		expr, err := sel.Parse(c.where)
		if err != nil {
			return err
		}
		name, selectFn := "core.SelectJobs", d.SelectJobs
		switch c.col {
		case "sev", "cat", "comp", "midplane", "rack":
			name, selectFn = "core.SelectEvents", d.SelectEvents
		}
		sp := t.rec.begin(name+"("+c.col+")", -1, 0)
		_, err = selectFn(expr)
		t.rec.end(sp)
		if err != nil {
			return err
		}
	}
	var total int
	for _, st := range d.IndexStats() {
		total += st.Bytes
	}
	t.rep.add("core.index_bytes", float64(total), "bytes", 1)
	freeMemory()
	return nil
}

// missReplay replays missPerKind requests of each shape from the head of
// the miss stream, one layer call at a time: parse, first compile,
// pushdown scan, render, then the whole request through the handler. The
// handler's report must equal the rendered one. It returns how many
// stream inputs it used.
func (t *tracer) missReplay(dm *daemon, qs []query) (int, error) {
	h := dm.srv.Handler()
	jv, ev := dm.d.JobView(), dm.d.EventView()
	n := missPerKind * len(shapes)
	for i, q := range qs[:n] {
		req := int64(reqMiss + i)
		t.reqShape[req] = q.shape
		root := t.rec.begin("request", -1, req)
		sp := t.rec.begin("sel.Parse", root, req)
		expr, err := sel.Parse(q.where)
		parse := t.rec.end(sp)
		if err != nil {
			return 0, err
		}
		sp = t.rec.begin("core.CompileWhere", root, req)
		jobSel, evSel, err := dm.d.CompileWhere(expr)
		t.rec.end(sp)
		if err != nil {
			return 0, err
		}
		t.jobFrac[q.shape] = append(t.jobFrac[q.shape], frac(jobSel, jv.N))
		t.evFrac[q.shape] = append(t.evFrac[q.shape], frac(evSel, ev.N))
		alloc0 := totalAlloc()
		sp = t.rec.begin("core.FusedScanWhere", root, req)
		p, err := dm.d.FusedScanWhere(expr, scanWorkers)
		t.rec.end(sp)
		t.scanAlloc = append(t.scanAlloc, float64(totalAlloc()-alloc0)/1024)
		if err != nil {
			return 0, err
		}
		var rendered bytes.Buffer
		sp = t.rec.begin("experiments.RenderCohort", root, req)
		err = experiments.RenderCohort(&rendered, p, expr.String())
		render := t.rec.end(sp)
		if err != nil {
			return 0, err
		}
		rw := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodGet, cohortURL("", q), nil)
		sp = t.rec.begin("serve.ServeHTTP miss", root, req)
		h.ServeHTTP(rw, hreq)
		miss := t.rec.end(sp)
		// The miss scanned with caches warmed by the first scan; a second,
		// equally warm scan is what the miss's own scan is compared with.
		sp = t.rec.begin("core.FusedScanWhere again", root, req)
		_, err = dm.d.FusedScanWhere(expr, scanWorkers)
		warmScan := t.rec.end(sp)
		t.rec.end(root)
		if err != nil {
			return 0, err
		}
		t.rep.attempted++
		if rw.Code != http.StatusOK {
			t.rep.failed++
			continue
		}
		var cb cohortBody
		if err := json.Unmarshal(rw.Body.Bytes(), &cb); err != nil || cb.Report != rendered.String() ||
			rw.Header().Get("X-Cache") != serve.Miss.String() {
			t.rep.fail("%s: replayed miss differs from the layer-by-layer result", q.canon)
		}
		if q.shape == shapeWeek || q.shape == shapeUserEvents {
			t.missOverhead = append(t.missOverhead, us(miss-parse-warmScan-render))
		}
	}
	return n, nil
}

func frac(b *bitmap.Bitmap, n int) float64 {
	if b == nil {
		return 1 // the side is unconstrained: every row is scanned
	}
	return float64(b.Cardinality()) / float64(n)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// discardWriter is a ResponseWriter that keeps only the status, so timing
// and allocation figures of the handler carry as little harness as
// possible.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// hitReplay times primed cohort requests through the handler with no
// socket, measures their allocations, and times the same requests
// through the listener to isolate the net/http round trip.
func (t *tracer) hitReplay(dm *daemon, hot []query) error {
	h := dm.srv.Handler()
	reqs := make([]*http.Request, len(hot))
	for i, q := range hot {
		reqs[i] = httptest.NewRequest(http.MethodGet, cohortURL("", q), nil)
	}
	w := &discardWriter{h: http.Header{}}
	serveHit := func(i int) {
		clear(w.h)
		w.code = http.StatusOK
		h.ServeHTTP(w, reqs[i%len(reqs)])
		t.rep.attempted++
		if w.code != http.StatusOK {
			t.rep.failed++
		} else if w.h.Get("X-Cache") != serve.Hit.String() {
			t.rep.fail("%s: replayed hit served from %q", hot[i%len(hot)].canon, w.h.Get("X-Cache"))
		}
	}
	for i := 0; i < hitReps; i++ {
		req := int64(reqHit + i)
		sp := t.rec.begin("serve.ServeHTTP hit", -1, req)
		serveHit(i)
		t.rec.end(sp)
	}
	alloc0 := totalAlloc()
	for i := 0; i < hitReps; i++ {
		serveHit(i)
	}
	t.rep.add("serve.alloc_kb_per_hit", float64(totalAlloc()-alloc0)/1024/hitReps, "KB", hitReps)

	c := newConn()
	defer c.CloseIdleConnections()
	for i := 0; i < hitReps; i++ {
		req := int64(reqRT + i)
		sp := t.rec.begin("http.GET /v1/cohort hit", -1, req)
		r, err := fetch(c, cohortURL(dm.base, hot[i%len(hot)]))
		t.rec.end(sp)
		if err != nil {
			return err
		}
		t.rep.attempted++
		if r.status != http.StatusOK {
			t.rep.failed++
		} else if r.cache != serve.Hit.String() {
			t.rep.fail("%s: round-trip hit served from %q", hot[i%len(hot)].canon, r.cache)
		}
	}
	return nil
}

// suiteReplay runs the suite on a fresh Env as RunAll(env, 1) does, one
// span per experiment after the shared fused profile, then measures the
// allocation volume of a whole RunAll pass.
func (t *tracer) suiteReplay(d *core.Dataset) error {
	env := experiments.NewEnvFromDataset(d)
	env.Parallelism = scanWorkers
	root := t.rec.begin("suite", -1, 0)
	sp := t.rec.begin("experiments.fused_profile", root, 0)
	_, err := env.CohortProfileExpr(nil)
	t.rec.end(sp)
	if err != nil {
		return err
	}
	var results []*experiments.Result
	for _, exp := range experiments.All() {
		sp := t.rec.begin("experiments."+exp.ID, root, 0)
		res, err := exp.Run(env)
		t.rec.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		results = append(results, res)
	}
	t.rec.end(root)
	t.rep.attempted++
	checkAnchors(results, t.rep)

	alloc0 := totalAlloc()
	_, err = suitePass(d)
	t.rep.add("experiments.suite_alloc_mb", float64(totalAlloc()-alloc0)/(1<<20), "MB", 1)
	return err
}

func cacheStats(dm *daemon) (serve.CacheStats, error) {
	var st struct {
		Cache serve.CacheStats `json:"cache"`
	}
	c := newConn()
	defer c.CloseIdleConnections()
	r, err := fetch(c, dm.base+"/v1/stats")
	if err != nil {
		return st.Cache, err
	}
	if r.status != http.StatusOK {
		return st.Cache, fmt.Errorf("/v1/stats: status %d", r.status)
	}
	err = json.Unmarshal(r.body, &st)
	return st.Cache, err
}

func (t *tracer) addCacheStats(a, b serve.CacheStats) {
	hits, misses, coll := b.Hits-a.Hits, b.Misses-a.Misses, b.Collapsed-a.Collapsed
	lookups := hits + misses + coll
	ratio := 0.0
	if lookups > 0 {
		ratio = float64(hits) / float64(lookups)
	}
	t.rep.add("serve.cache_hit_ratio", ratio, "ratio", int(lookups))
	t.rep.add("serve.cache_collapsed", float64(coll), "count", int(lookups))
	t.rep.add("serve.cache_evictions", float64(b.Evictions-a.Evictions), "count", int(lookups))
}

// runtimeCounters reads the GC's CPU time and cycle count.
func runtimeCounters() (gcCPU float64, cycles uint64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

// overhead measures the workload in four quarter-length phases, untraced,
// traced (a span per request or per suite pass), traced, untraced, so a
// steady drift of the machine cancels out, and reports the traced rate's
// shortfall against the untraced rate. The runtime and cache figures
// cover the two traced phases, which run back to back.
func (t *tracer) overhead(o options, w workload, dm *daemon, qs []query, hot []query, bodies [][]byte) error {
	quarter := time.Duration(o.seconds) * time.Second / 4
	var done [2]int
	var elapsed [2]time.Duration
	var gc0, gc1 float64
	var cyc0, cyc1 uint64
	var stats0, stats1 serve.CacheStats
	var err error
	for phase, rec := range []*recorder{nil, t.rec, t.rec, nil} {
		if phase == 1 {
			if stats0, err = cacheStats(dm); err != nil {
				return err
			}
			gc0, cyc0 = runtimeCounters()
		}
		n, el, err := t.phase(o, w, dm, &qs, hot, bodies, quarter, int64(phase), rec)
		if err != nil {
			return err
		}
		k := 0 // untraced
		if rec != nil {
			k = 1
		}
		done[k] += n
		elapsed[k] += el
		if phase == 2 {
			gc1, cyc1 = runtimeCounters()
			if stats1, err = cacheStats(dm); err != nil {
				return err
			}
		}
	}
	t.rep.add("runtime.gc_cpu_ms_per_req", (gc1-gc0)*1000/float64(max(done[1], 1)), "ms", done[1])
	t.rep.add("runtime.gc_cycles", float64(cyc1-cyc0), "count", done[1])
	if w.name != "paper-suite" {
		t.addCacheStats(stats0, stats1)
	}
	untraced := float64(done[0]) / elapsed[0].Seconds()
	traced := float64(done[1]) / elapsed[1].Seconds()
	t.rep.add("trace.overhead_pct", (untraced/traced-1)*100, "%", done[0]+done[1])
	return nil
}

// phase runs the workload for dur and returns the operations completed
// (200 responses, or suite passes) and the time taken. The miss stream
// advances past the inputs a phase used.
func (t *tracer) phase(o options, w workload, dm *daemon, qs *[]query, hot []query, bodies [][]byte,
	dur time.Duration, n int64, rec *recorder) (int, time.Duration, error) {
	switch w.name {
	case "cohort-miss":
		st, _, err := missPhase(dm, *qs, dur, 1, rec, t.rep)
		if err != nil {
			return 0, 0, err
		}
		t.rep.attempted += len(st.outcomes)
		t.rep.failed += st.failed
		if len(st.outcomes) > 0 {
			*qs = (*qs)[maxQ(st.outcomes)+1:]
		}
		return st.ok(), st.elapsed, nil
	case "cohort-hot":
		st := hotPhase(dm, hot, bodies, o.seed+n, dur, rec, t.rep)
		t.rep.attempted += len(st.outcomes)
		t.rep.failed += st.failed
		return st.ok(), st.elapsed, nil
	}
	start := time.Now()
	done := 0
	for done == 0 || time.Since(start) < dur {
		sp := rec.begin("experiments.RunAll", -1, n<<20|int64(done))
		_, err := suitePass(dm.d)
		rec.end(sp)
		if err != nil {
			return 0, 0, err
		}
		t.rep.attempted++
		done++
	}
	return done, time.Since(start), nil
}

// addLayerMetrics derives the span-based per-layer metrics from the self
// times of the recorded spans.
func (t *tracer) addLayerMetrics() {
	spans := t.rec.spans
	self := selfTimes(spans)
	med := func(name string, unit func(time.Duration) float64, filter func(span) bool) (float64, int) {
		var v []float64
		for i, s := range spans {
			if s.Name == name && (filter == nil || filter(s)) {
				v = append(v, unit(self[i]))
			}
		}
		return median(v), len(v)
	}
	add := func(metric, span, unitName string, unit func(time.Duration) float64) float64 {
		v, n := med(span, unit, nil)
		t.rep.add(metric, v, unitName, n)
		return v
	}
	add("pack.decode_ms", "pack.Unmarshal", "ms", ms)
	add("pack.load_ms", "pack.LoadDir", "ms", ms)
	for _, c := range []string{"user", "project", "exit", "submit"} {
		add("core.index_build_ms."+c, "core.SelectJobs("+c+")", "ms", ms)
	}
	for _, c := range []string{"sev", "cat", "comp", "midplane", "rack"} {
		add("core.index_build_ms."+c, "core.SelectEvents("+c+")", "ms", ms)
	}
	add("serve.warm_ms", "serve.Warm", "ms", ms)
	add("core.compile_us", "core.CompileWhere", "us", us)
	for k, sh := range shapes {
		isShape := func(s span) bool { shape, ok := t.reqShape[s.Req]; return ok && shape == k }
		v, n := med("core.FusedScanWhere", ms, isShape)
		t.rep.add("core.scan_where_ms."+sh.name, v, "ms", n)
		t.rep.add("core.selected_jobs_frac."+sh.name, median(t.jobFrac[k]), "ratio", len(t.jobFrac[k]))
		t.rep.add("core.selected_events_frac."+sh.name, median(t.evFrac[k]), "ratio", len(t.evFrac[k]))
	}
	t.rep.add("core.scan_alloc_kb", median(t.scanAlloc), "KB", len(t.scanAlloc))
	add("core.fused_scan_ms", "core.FusedScan", "ms", ms)
	add("sel.parse_us", "sel.Parse", "us", us)
	add("experiments.render_cohort_us", "experiments.RenderCohort", "us", us)
	add("experiments.fused_profile_ms", "experiments.fused_profile", "ms", ms)
	for _, exp := range experiments.All() {
		add("experiments."+exp.ID+"_ms", "experiments."+exp.ID, "ms", ms)
	}
	hit := add("serve.hit_us", "serve.ServeHTTP hit", "us", us)
	add("serve.miss_ms", "serve.ServeHTTP miss", "ms", ms)
	t.rep.add("serve.miss_overhead_us", median(t.missOverhead), "us", len(t.missOverhead))
	rt, n := med("http.GET /v1/cohort hit", us, nil)
	t.rep.add("http.roundtrip_overhead_us", rt-hit, "us", n)
}
