package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/joblog"
	"repro/internal/pack"
	"repro/internal/sel"
)

// Options configures a Server. The zero value is usable: every field
// falls back to the documented default.
type Options struct {
	// CacheEntries bounds the rendered-response LRU (default 1024).
	CacheEntries int
	// MaxInflight bounds concurrently executing /v1 requests; excess
	// requests get 429 instead of queueing without bound (default 256).
	MaxInflight int
	// Parallelism is the worker bound each fused scan runs with
	// (≤ 0 = GOMAXPROCS); results are identical at any setting.
	Parallelism int
	// Pprof mounts net/http/pprof under /debug/pprof/ when set.
	Pprof bool
}

func (o *Options) defaults() {
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 256
	}
}

// cacheShards spreads the response LRU's lock contention; maxWhereLen
// bounds the accepted predicate length in bytes.
const (
	cacheShards = 16
	maxWhereLen = 4096
)

// endpointStats counts one route's traffic. All fields are atomics; the
// hot path never takes a lock for accounting.
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	totalNs  atomic.Int64
}

// EndpointStats is the JSON view of one route's counters.
type EndpointStats struct {
	Requests  uint64  `json:"requests"`
	Errors    uint64  `json:"errors"`
	AvgMillis float64 `json:"avg_ms"`
}

// Server answers profile/cohort/experiment queries over one warm
// Dataset. The Dataset, its column views and its lazily built indexes are
// immutable after construction and safe to share across requests (the
// read-only contract race-tested in core); all per-request mutable state
// lives in the cache and the atomic counters.
type Server struct {
	env   *experiments.Env
	opts  Options
	cache *Cache
	// limiter is a counting semaphore over executing /v1 requests.
	limiter chan struct{}
	mux     *http.ServeMux
	start   time.Time
	warm    time.Duration

	epProfile, epCohort, epExperiments, epStats, epHealth endpointStats
}

// New builds a Server over an evaluation environment (one loaded or
// generated corpus). Call Warm before serving traffic to pay the lazy
// index construction once, off the request path.
func New(env *experiments.Env, opts Options) *Server {
	opts.defaults()
	s := &Server{
		env:     env,
		opts:    opts,
		cache:   NewCache(opts.CacheEntries, cacheShards),
		limiter: make(chan struct{}, opts.MaxInflight),
		start:   time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument(&s.epHealth, s.handleHealthz))
	mux.HandleFunc("GET /v1/profile", s.limited(&s.epProfile, s.handleProfile))
	mux.HandleFunc("GET /v1/cohort", s.limited(&s.epCohort, s.handleCohort))
	mux.HandleFunc("GET /v1/experiments/{id}", s.limited(&s.epExperiments, s.handleExperiment))
	mux.HandleFunc("GET /v1/stats", s.limited(&s.epStats, s.handleStats))
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

// Handler returns the routed handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// WarmStats reports what Warm pre-built.
type WarmStats struct {
	Duration time.Duration
}

// Warm pre-builds the whole-corpus fused profile, which also becomes the
// /v1/profile cache entry, so the first profile request is a cache hit.
// It builds no selection index: each dimension builds on the first cohort
// query that reads it, and concurrent first readers share that build.
func (s *Server) Warm() (WarmStats, error) {
	t0 := time.Now()
	if _, _, err := s.profileBody(); err != nil {
		return WarmStats{}, err
	}
	ws := WarmStats{Duration: time.Since(t0)}
	s.warm = ws.Duration
	return ws, nil
}

// ResetCache drops every cached response (benchmarks use it to measure
// the cold path; counters survive).
func (s *Server) ResetCache() { s.cache.Reset() }

// instrument wraps a handler with request/latency accounting.
func (s *Server) instrument(ep *endpointStats, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		ep.requests.Add(1)
		if sw.code >= 400 {
			ep.errors.Add(1)
		}
		ep.totalNs.Add(time.Since(t0).Nanoseconds())
	}
}

// limited stacks the in-flight limiter under the instrumentation: over
// MaxInflight concurrently executing /v1 requests, new ones are shed
// with 429 rather than queued without bound.
func (s *Server) limited(ep *endpointStats, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return s.instrument(ep, func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.limiter <- struct{}{}:
			defer func() { <-s.limiter }()
			h(w, r)
		default:
			writeError(w, http.StatusTooManyRequests, "server at max in-flight requests; retry")
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(body, '\n'))
}

func writeJSONBody(w http.ResponseWriter, src Source, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", src.String())
	w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// cohortResponse is the /v1/cohort (and /v1/profile) body. Report is the
// rendered text report, bit-identical to `mirareport -where <where>` for
// the same predicate string (both go through experiments.RenderCohort).
type cohortResponse struct {
	Where        string            `json:"where"` // canonical form = cache key
	Summary      core.Summary      `json:"summary"`
	ExitFamilies map[string]int    `json:"exit_families"`
	TopUsers     []core.GroupStats `json:"top_users"`
	Report       string            `json:"report"`
}

// renderCohortBody computes a cohort and renders the response JSON once;
// the bytes are what the LRU holds.
func (s *Server) renderCohortBody(expr sel.Expr, where string) ([]byte, error) {
	var p *core.Cohort
	var err error
	if expr == nil {
		// Whole corpus: share the Env's memoized fused profile.
		p, err = s.env.CohortProfileExpr(nil)
	} else {
		p, err = s.env.D.FusedScanWhere(expr, s.opts.Parallelism)
	}
	if err != nil {
		return nil, err
	}
	var report bytes.Buffer
	if err := experiments.RenderCohort(&report, p, where); err != nil {
		return nil, err
	}
	resp := cohortResponse{
		Where:        where,
		Summary:      p.Summary,
		ExitFamilies: map[string]int{},
		TopUsers:     p.UserGroups,
		Report:       report.String(),
	}
	for c := 1; c < joblog.NumFamilies; c++ {
		if n := p.Exit.ByFamily[c]; n > 0 {
			resp.ExitFamilies[string(joblog.FamilyOfCode(uint8(c)))] = n
		}
	}
	if len(resp.TopUsers) > 10 {
		resp.TopUsers = resp.TopUsers[:10]
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// profileKey is the whole-corpus entry's key; "*" cannot collide with a
// canonical predicate (those always contain a comparison).
const profileKey = "*"

func (s *Server) profileBody() ([]byte, Source, error) {
	return s.cache.GetOrCompute(profileKey, func() ([]byte, error) {
		return s.renderCohortBody(nil, profileKey)
	})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	body, src, err := s.profileBody()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSONBody(w, src, body)
}

func (s *Server) handleCohort(w http.ResponseWriter, r *http.Request) {
	where := r.URL.Query().Get("where")
	if where == "" {
		writeError(w, http.StatusBadRequest, "missing 'where' query parameter")
		return
	}
	if len(where) > maxWhereLen {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("'where' longer than %d bytes", maxWhereLen))
		return
	}
	expr, err := sel.Parse(where)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// The canonical form is the cache key, so every syntactic variant of
	// one selection shares a single entry.
	canon := expr.String()
	body, src, err := s.cache.GetOrCompute(canon, func() ([]byte, error) {
		return s.renderCohortBody(expr, canon)
	})
	if err != nil {
		// Compile errors (unknown column values, mixed-domain conjuncts)
		// are the query's fault, not the server's.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSONBody(w, src, body)
}

// experimentResponse is the /v1/experiments/{id} body: the experiment's
// metric map plus its rendered tables and figures.
type experimentResponse struct {
	ID          string             `json:"id"`
	Description string             `json:"description"`
	Metrics     map[string]float64 `json:"metrics"`
	Tables      []string           `json:"tables"`
	Figures     []string           `json:"figures"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	exp, ok := experiments.ByID(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q (E1..E23)", id))
		return
	}
	body, src, err := s.cache.GetOrCompute("exp:"+strings.ToUpper(id), func() ([]byte, error) {
		res, err := exp.Run(s.env)
		if err != nil {
			return nil, err
		}
		resp := experimentResponse{
			ID:          res.ID,
			Description: res.Description,
			Metrics:     res.Metrics,
		}
		for _, t := range res.Tables {
			resp.Tables = append(resp.Tables, t.String())
		}
		for _, f := range res.Figures {
			resp.Figures = append(resp.Figures, f.String())
		}
		b, err := json.Marshal(&resp)
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSONBody(w, src, body)
}

// statsResponse is the /v1/stats body: cache and endpoint counters, the
// selection-index inventory, and process runtime numbers.
type statsResponse struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	WarmMillis    float64                  `json:"warm_ms"`
	Cache         CacheStats               `json:"cache"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
	Corpus        corpusStats              `json:"corpus"`
	Index         []core.IndexStat         `json:"index"`
	Runtime       runtimeStats             `json:"runtime"`
}

type corpusStats struct {
	Jobs   int     `json:"jobs"`
	Events int     `json:"events"`
	Days   float64 `json:"days"`
}

// runtimeStats are process numbers. MappedBytes counts the mapped
// snapshot files whose columns the loaded dataset adopts (pack.ReadFile),
// which HeapBytes leaves out; it is 0 for a CSV or generated corpus.
type runtimeStats struct {
	Goroutines  int    `json:"goroutines"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	HeapBytes   uint64 `json:"heap_bytes"`
	MappedBytes int64  `json:"mapped_bytes"`
}

func epView(ep *endpointStats) EndpointStats {
	n := ep.requests.Load()
	v := EndpointStats{Requests: n, Errors: ep.errors.Load()}
	if n > 0 {
		v.AvgMillis = float64(ep.totalNs.Load()) / float64(n) / 1e6
	}
	return v
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	resp := statsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		WarmMillis:    float64(s.warm.Nanoseconds()) / 1e6,
		Cache:         s.cache.Stats(),
		Endpoints: map[string]EndpointStats{
			"/healthz":        epView(&s.epHealth),
			"/v1/profile":     epView(&s.epProfile),
			"/v1/cohort":      epView(&s.epCohort),
			"/v1/experiments": epView(&s.epExperiments),
			"/v1/stats":       epView(&s.epStats),
		},
		Corpus: corpusStats{
			Jobs:   s.env.D.JobView().N,
			Events: s.env.D.EventView().N,
			Days:   s.env.D.Days(),
		},
		Index: s.env.D.IndexStats(),
		Runtime: runtimeStats{Goroutines: runtime.NumGoroutine(), GOMAXPROCS: runtime.GOMAXPROCS(0), HeapBytes: mem.HeapAlloc,
			MappedBytes: pack.MappedBytes()},
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}
