package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pack"
	"repro/internal/sel"
	"repro/internal/serve"
)

// Load comes from one process over loopback. conns × serve.Options
// Parallelism must not exceed the two cores the benchmark is sized for:
// two connections saturate both without queueing behind each other.
const (
	conns        = 2
	scanWorkers  = 1
	cohortSetups = 3
)

// daemon is mirad's start-up path run inside this process: load the
// snapshot, wrap it in an Env, build the server, warm it, and serve it on
// a real loopback listener.
type daemon struct {
	d    *core.Dataset
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startDaemon cold-starts a daemon and returns the time from pack.LoadDir
// to the first /v1/profile body. With a recorder, each step is a span.
func startDaemon(dir string, rec *recorder) (*daemon, time.Duration, error) {
	t0 := time.Now()
	root := rec.begin("setup", -1, 0)
	sp := rec.begin("pack.LoadDir", root, 0)
	d, err := pack.LoadDir(dir, pack.FormatPack)
	rec.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = rec.begin("experiments.NewEnvFromDataset", root, 0)
	env := experiments.NewEnvFromDataset(d)
	env.Parallelism = scanWorkers
	rec.end(sp)
	sp = rec.begin("serve.New", root, 0)
	srv := serve.New(env, serve.Options{Parallelism: scanWorkers})
	rec.end(sp)
	sp = rec.begin("serve.Warm", root, 0)
	_, err = srv.Warm()
	rec.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("warm: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	dm := &daemon{
		d:    d,
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { dm.done <- dm.hs.Serve(ln) }()
	c := newConn()
	sp = rec.begin("http.GET /v1/profile", root, 0)
	rep, err := fetch(c, dm.base+"/v1/profile")
	rec.end(sp)
	c.CloseIdleConnections()
	setup := time.Since(t0)
	rec.end(root)
	if err == nil && (rep.status != http.StatusOK || len(rep.body) == 0) {
		err = fmt.Errorf("first /v1/profile: status %d, %d bytes", rep.status, len(rep.body))
	}
	if err != nil {
		dm.close()
		return nil, 0, err
	}
	return dm, setup, nil
}

// close shuts the listener down and waits for the serve goroutine.
func (dm *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := dm.hs.Shutdown(ctx); err != nil {
		dm.hs.Close() // the drain timed out: drop the connections so Serve returns
	}
	<-dm.done
}

// coldStarts starts the daemon cohortSetups times and keeps the last one;
// setup_s is the median cold start.
func coldStarts(dir string, rep *report) (*daemon, error) {
	var setups []float64
	var dm *daemon
	for i := 0; i < cohortSetups; i++ {
		if dm != nil {
			dm.close()
			dm = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		var setup time.Duration
		var err error
		if dm, setup, err = startDaemon(dir, nil); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	rep.add("setup_s", median(setups), "s", len(setups))
	return dm, nil
}

// newConn is one client connection: the transport never opens a second.
// The timeout only keeps a hung server from hanging the run.
func newConn() *http.Client {
	return &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

type reply struct {
	status int
	cache  string
	body   []byte
}

func fetch(c *http.Client, u string) (reply, error) {
	resp, err := c.Get(u)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: body}, err
}

func cohortURL(base string, q query) string {
	return base + "/v1/cohort?where=" + url.QueryEscape(q.where)
}

// outcome is one completed request of the closed loop.
type outcome struct {
	q      int           // index of the query in the workload's inputs
	ms     float64       // latency, send to last body byte
	done   time.Duration // completion, from the start of the phase
	status int
	body   []byte // kept only when keep is set
}

// loopStats is what a closed-loop phase measured.
type loopStats struct {
	outcomes []outcome
	failed   int // no 200: transport errors, 429s, anything else
	elapsed  time.Duration
	cpu      time.Duration
}

func (s *loopStats) ok() int { return len(s.outcomes) - s.failed }

// closedLoop runs conns callers for dur. Each sends its next request only
// after the previous reply is read in full. next returns the input index
// of a connection's i-th request, or -1 when its inputs are exhausted;
// check validates each reply inside the loop (status and cache source).
// With a recorder, each request is a root span with its own request id.
func closedLoop(base string, qs []query, dur time.Duration, keep bool,
	next func(conn, i int) int, check func(q int, r reply) error, rec *recorder, rep *report) loopStats {
	per := make([][]outcome, conns)
	failed := make([]int, conns)
	var checkMu sync.Mutex
	cpu0, _ := usage()
	t0 := time.Now()
	deadline := t0.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newConn()
			defer cl.CloseIdleConnections()
			// Spans stay local to the connection until the loop ends, so
			// tracing adds no lock and no clock read per request.
			var spans []span
			defer func() { rec.add(spans) }()
			for i := 0; time.Now().Before(deadline); i++ {
				q := next(c, i)
				if q < 0 {
					break
				}
				start := time.Now()
				r, err := fetch(cl, cohortURL(base, qs[q]))
				lat := time.Since(start)
				if rec != nil {
					s0 := start.Sub(rec.epoch)
					spans = append(spans, span{Name: "http.GET /v1/cohort", Start: s0, End: s0 + lat,
						Parent: -1, Req: int64(c)<<40 | int64(i)})
				}
				o := outcome{q: q, ms: ms(lat), done: time.Since(t0), status: r.status}
				if err != nil || r.status != http.StatusOK {
					failed[c]++
				} else if cerr := check(q, r); cerr != nil {
					checkMu.Lock()
					rep.fail("%s: %v", qs[q].canon, cerr)
					checkMu.Unlock()
				}
				if keep {
					o.body = r.body
				}
				per[c] = append(per[c], o)
			}
		}(c)
	}
	wg.Wait()
	st := loopStats{elapsed: time.Since(t0)}
	cpu1, _ := usage()
	st.cpu = cpu1 - cpu0
	for c := range per {
		st.outcomes = append(st.outcomes, per[c]...)
		st.failed += failed[c]
	}
	return st
}

// maxWindows bounds how many consecutive windows a phase's latencies split
// into. A latency percentile is the median of the windows' percentiles,
// so one burst (a collection, a scheduling hiccup) moves at most one
// window.
const maxWindows = 5

// windowPercentile splits the 200 responses, in completion order, into as
// many equal windows (at most maxWindows) as leave minBeyond samples
// beyond the q-quantile in each, and returns the median of the windows'
// q-quantiles with the number of windows.
func (s *loopStats) windowPercentile(q float64) (float64, int, error) {
	var done []outcome
	for _, o := range s.outcomes {
		if o.status == http.StatusOK {
			done = append(done, o)
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].done < done[j].done })
	need := int(math.Ceil(minBeyond/(1-q))) + 1
	w := max(1, min(maxWindows, len(done)/need))
	var per []float64
	for k := 0; k < w; k++ {
		lat := make([]float64, 0, len(done)/w+1)
		for _, o := range done[k*len(done)/w : (k+1)*len(done)/w] {
			lat = append(lat, o.ms)
		}
		v, _, err := percentile(lat, q)
		if err != nil {
			return 0, w, err
		}
		per = append(per, v)
	}
	return median(per), w, nil
}

// addLoopMetrics reports throughput, latency p50 and the tail percentile
// (tail: 0.9 or 0.99, whichever the workload's sample count supports),
// and CPU per request.
func addLoopMetrics(st *loopStats, tail float64, rep *report) error {
	rep.attempted += len(st.outcomes)
	rep.failed += st.failed
	ok := st.ok()
	if ok == 0 {
		return fmt.Errorf("no request completed")
	}
	rep.add("ops_per_s", float64(ok)/st.elapsed.Seconds(), "1/s", ok)
	for _, m := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_tail_ms", tail}} {
		v, w, err := st.windowPercentile(m.q)
		if err != nil {
			return err
		}
		rep.add(m.name, v, "ms", ok)
		rep.note("%s: p%g, median over %d windows of %d samples", m.name, m.q*100, w, ok/w)
	}
	rep.add("cpu_ms_per_op", ms(st.cpu)/float64(ok), "ms", ok)
	return nil
}

// addMemory reports the process's peak RSS and the heap still live after
// a collection at the end of the measured phase.
func addMemory(rep *report) {
	_, rss := usage()
	rep.add("rss_mb", float64(rss)/1024, "MB", 1)
	rep.add("heap_live_mb", float64(liveHeap())/(1<<20), "MB", 1)
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// expectedReport is what /v1/cohort's report field must equal: the
// library's RenderCohort over FusedScanWhere for the same predicate.
func expectedReport(d *core.Dataset, q query) ([]byte, error) {
	expr, err := sel.Parse(q.where)
	if err != nil {
		return nil, err
	}
	p, err := d.FusedScanWhere(expr, scanWorkers)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := experiments.RenderCohort(&b, p, expr.String()); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// cohortBody is the part of a /v1/cohort body the checks read.
type cohortBody struct {
	Where  string `json:"where"`
	Report string `json:"report"`
}

// verifyReports checks, outside any timed phase, that each reply's report
// is byte-identical to the library rendering for its predicate; sums[i]
// is the SHA-256 of outs[i]'s report. The miss stream never repeats a
// predicate, so each reply costs one scan. One worker per core.
func verifyReports(d *core.Dataset, qs []query, outs []outcome, sums [][32]byte, rep *report) error {
	errs := make([]error, conns)
	bad := make([][]int, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(outs); i += conns {
				if outs[i].status != http.StatusOK {
					continue
				}
				b, err := expectedReport(d, qs[outs[i].q])
				if err != nil {
					errs[w] = fmt.Errorf("%s: %w", qs[outs[i].q].canon, err)
					return
				}
				if sha256.Sum256(b) != sums[i] {
					bad[w] = append(bad[w], i)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for _, b := range bad {
		for _, i := range b {
			rep.fail("%s: report differs from RenderCohort(FusedScanWhere)", qs[outs[i].q].canon)
		}
	}
	return nil
}

// reportSum extracts a reply's report field and hashes it, checking that
// the body names the predicate's canonical form.
func reportSum(q query, body []byte) ([32]byte, error) {
	var cb cohortBody
	if err := json.Unmarshal(body, &cb); err != nil {
		return [32]byte{}, err
	}
	if cb.Where != q.canon {
		return [32]byte{}, fmt.Errorf("body names %q", cb.Where)
	}
	return sha256.Sum256([]byte(cb.Report)), nil
}

// missInputs sizes the miss stream so no connection can run out within
// dur: far more than the fastest shape could complete.
func missInputs(d *core.Dataset, seed int64, dur time.Duration) ([]query, error) {
	f := factsOf(d)
	return missStream(&f, seed, int(dur.Seconds()+1)*2000)
}

func runCohortMiss(o options, dir string, rep *report) error {
	dm, err := coldStarts(dir, rep)
	if err != nil {
		return err
	}
	defer dm.close()
	dur := time.Duration(o.seconds) * time.Second
	qs, err := missInputs(dm.d, o.seed, dur)
	if err != nil {
		return err
	}
	st, retainedKB, err := missPhase(dm, qs, dur, missSlices, nil, rep)
	if err != nil {
		return err
	}
	if err := addLoopMetrics(&st, 0.9, rep); err != nil {
		return err
	}
	addMemory(rep)
	rep.note("retained heap per request: %.4g KB over %d requests", retainedKB, st.ok())
	shapeNotes(qs, &st, rep)
	return nil
}

// shapeNotes prints each shape's median latency, which shows where p50
// and p90 of the mix fall.
func shapeNotes(qs []query, st *loopStats, rep *report) {
	by := make([][]float64, len(shapes))
	for _, o := range st.outcomes {
		by[qs[o.q].shape] = append(by[qs[o.q].shape], o.ms)
	}
	for i, v := range by {
		q1, q2, q3 := quartiles(v)
		rep.note("shape %-12s n=%-5d latency q1 %.2f  median %.2f  q3 %.2f ms", shapes[i].name, len(v), q1, q2, q3)
	}
}

// maxQ is the highest input index a phase used.
func maxQ(outs []outcome) int {
	m := 0
	for _, o := range outs {
		m = max(m, o.q)
	}
	return m
}

// missSlices is how many parts the measured phase of cohort-miss splits
// into. Each part's replies are verified right after it, so the
// measurement spreads over the whole run instead of its first half and
// averages over more of the machine's slow and fast spells.
const missSlices = 4

// missPhase drives the miss stream for dur in the given number of slices
// (within a slice, connection c takes inputs c, c+conns, c+2·conns, ...
// of what is left), checks every reply and returns the loop statistics of
// all slices and the live heap retained per completed request.
func missPhase(dm *daemon, qs []query, dur time.Duration, slices int, rec *recorder, rep *report) (loopStats, float64, error) {
	var ranOut atomic.Bool
	var from int // first input of the current slice
	next := func(c, i int) int {
		if k := from + c + conns*i; k < len(qs) {
			return k
		}
		ranOut.Store(true)
		return -1
	}
	check := func(q int, r reply) error {
		if r.cache != serve.Miss.String() {
			return fmt.Errorf("X-Cache %q, want miss", r.cache)
		}
		return nil
	}
	var all loopStats
	var retained float64
	heap0 := liveHeap()
	for k := 0; k < slices; k++ {
		st := closedLoop(dm.base, qs, dur/time.Duration(slices), true, next, check, rec, rep)
		if ranOut.Load() {
			return all, 0, fmt.Errorf("miss stream of %d inputs ran out", len(qs))
		}
		// Keep only a digest of each report so the retained-heap figure
		// measures the server, not the replies this process holds.
		sums := make([][32]byte, len(st.outcomes))
		for i := range st.outcomes {
			o := &st.outcomes[i]
			if o.status == http.StatusOK {
				s, err := reportSum(qs[o.q], o.body)
				if err != nil {
					rep.fail("%s: %v", qs[o.q].canon, err)
				}
				sums[i] = s
			}
			o.body = nil
			o.done += all.elapsed
		}
		if len(st.outcomes) > 0 {
			from = maxQ(st.outcomes) + 1
		}
		all.outcomes = append(all.outcomes, st.outcomes...)
		all.failed += st.failed
		all.elapsed += st.elapsed
		all.cpu += st.cpu
		if k == slices-1 {
			retained = (float64(liveHeap()) - float64(heap0)) / 1024 / float64(max(all.ok(), 1))
		}
		if err := verifyReports(dm.d, qs, st.outcomes, sums, rep); err != nil {
			return all, 0, err
		}
	}
	return all, retained, nil
}

func runCohortHot(o options, dir string, rep *report) error {
	dm, err := coldStarts(dir, rep)
	if err != nil {
		return err
	}
	defer dm.close()
	hot, bodies, err := primeHot(dm, o.seed, rep)
	if err != nil {
		return err
	}
	st := hotPhase(dm, hot, bodies, o.seed, time.Duration(o.seconds)*time.Second, nil, rep)
	if err := addLoopMetrics(&st, 0.99, rep); err != nil {
		return err
	}
	addMemory(rep)
	return nil
}

// primeHot requests every hot predicate once (each a miss), checks each
// report against the library rendering and returns the primed bodies.
func primeHot(dm *daemon, seed int64, rep *report) ([]query, [][]byte, error) {
	f := factsOf(dm.d)
	hot, err := hotSet(&f, seed)
	if err != nil {
		return nil, nil, err
	}
	c := newConn()
	defer c.CloseIdleConnections()
	bodies := make([][]byte, len(hot))
	for i, q := range hot {
		r, err := fetch(c, cohortURL(dm.base, q))
		if err != nil {
			return nil, nil, err
		}
		if r.status != http.StatusOK {
			return nil, nil, fmt.Errorf("priming %s: status %d", q.canon, r.status)
		}
		bodies[i] = r.body
		want, err := expectedReport(dm.d, q)
		if err != nil {
			return nil, nil, err
		}
		var cb cohortBody
		if err := json.Unmarshal(r.body, &cb); err != nil || cb.Where != q.canon || cb.Report != string(want) {
			rep.fail("%s: primed report differs from RenderCohort(FusedScanWhere)", q.canon)
		}
	}
	return hot, bodies, nil
}

// hotPhase cycles each connection over the hot set in its own seeded
// order; every reply must be a cache hit carrying the primed bytes.
func hotPhase(dm *daemon, hot []query, bodies [][]byte, seed int64, dur time.Duration, rec *recorder, rep *report) loopStats {
	rngs := make([]*rand.Rand, conns)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*31 + int64(c)))
	}
	next := func(c, i int) int { return rngs[c].Intn(len(hot)) }
	check := func(q int, r reply) error {
		if r.cache != serve.Hit.String() {
			return fmt.Errorf("X-Cache %q, want hit", r.cache)
		}
		if !bytes.Equal(r.body, bodies[q]) {
			return fmt.Errorf("hit body differs from the primed body")
		}
		return nil
	}
	return closedLoop(dm.base, hot, dur, false, next, check, rec, rep)
}
