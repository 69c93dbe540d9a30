package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sel"
	"repro/internal/sim"
)

// Shared deterministic corpus for the endpoint tests (30 days, fixed
// seed: every golden comparison below is reproducible byte for byte).
var (
	corpusOnce sync.Once
	corpusDS   *core.Dataset
	corpusErr  error
)

func testDataset(t *testing.T) *core.Dataset {
	t.Helper()
	corpusOnce.Do(func() {
		c, err := sim.Generate(sim.SmallConfig())
		if err != nil {
			corpusErr = err
			return
		}
		corpusDS, corpusErr = core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusDS
}

func newTestServer(t *testing.T) *Server {
	t.Helper()
	env := experiments.NewEnvFromDataset(testDataset(t))
	env.Parallelism = 1
	return New(env, Options{Parallelism: 1})
}

// do issues one request straight through the router (no sockets).
func do(t *testing.T, s *Server, target string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

func cohortURL(where string) string {
	return "/v1/cohort?where=" + url.QueryEscape(where)
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "/healthz")
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

// TestCohortGolden is the bit-identity contract: for every predicate of
// the table, the endpoint's report field must equal — byte for byte —
// what `mirareport -where <canonical>` prints for the same predicate.
// The reference is computed by materializing the cohort and scanning it
// (the reference path of DESIGN §14), so the comparison crosses both the
// serving layer and the pushdown engine.
func TestCohortGolden(t *testing.T) {
	s := newTestServer(t)
	d := testDataset(t)

	for _, where := range []string{
		"exit != success",
		"nodes >= 1024",
		"sev == FATAL",
		"dur > 3600 and exit == system",
		"sev != INFO and exit != success",
	} {
		expr, err := sel.Parse(where)
		if err != nil {
			t.Fatalf("parse %q: %v", where, err)
		}
		canon := expr.String()

		rec := do(t, s, cohortURL(where))
		if rec.Code != http.StatusOK {
			t.Fatalf("cohort %q: %d %s", where, rec.Code, rec.Body.String())
		}
		var resp struct {
			Where  string `json:"where"`
			Report string `json:"report"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("cohort %q: bad JSON: %v", where, err)
		}
		if resp.Where != canon {
			t.Errorf("cohort %q: where = %q, want canonical %q", where, resp.Where, canon)
		}

		// What mirareport -where prints for the canonical predicate.
		md, err := d.MaterializeWhere(expr)
		if err != nil {
			t.Fatalf("reference cohort %q: %v", canon, err)
		}
		p, err := md.FusedScan(1)
		if err != nil {
			t.Fatalf("reference cohort %q: %v", canon, err)
		}
		var want bytes.Buffer
		if err := experiments.RenderCohort(&want, &p.Cohort, canon); err != nil {
			t.Fatal(err)
		}
		if resp.Report != want.String() {
			t.Errorf("cohort %q: report differs from mirareport -where output\n got:\n%s\nwant:\n%s",
				where, resp.Report, want.String())
		}
	}
}

func TestCohortBadRequests(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name   string
		target string
	}{
		{"missing where", "/v1/cohort"},
		{"empty where", "/v1/cohort?where="},
		{"parse error", cohortURL("user ==")},
		{"unterminated string", cohortURL("user == 'oops")},
		{"unknown column", cohortURL("flavor == vanilla")},
		{"mixed domains in one conjunct", cohortURL("user == u001 or sev == FATAL")},
		{"bad numeric value", cohortURL("nodes >= many")},
		{"too deep", cohortURL(strings.Repeat("(", 300) + "a == 1" + strings.Repeat(")", 300))},
		{"oversized", cohortURL("user == " + strings.Repeat("x", 5000))},
	}
	for _, c := range cases {
		if rec := do(t, s, c.target); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400 (body %s)", c.name, rec.Code, rec.Body.String())
		}
	}
	// Unknown dictionary values select an empty cohort — a valid query.
	if rec := do(t, s, cohortURL("user == nobody-here")); rec.Code != http.StatusOK {
		t.Errorf("empty cohort: code = %d, want 200 (%s)", rec.Code, rec.Body.String())
	}
}

// TestCacheCountersViaStats drives hits/misses through the HTTP surface
// and asserts them through /v1/stats, the way an operator would.
func TestCacheCountersViaStats(t *testing.T) {
	s := newTestServer(t)
	where := "exit == system"
	variant := "(exit == 'system')" // same canonical form, different spelling

	if got := do(t, s, cohortURL(where)); got.Header().Get("X-Cache") != "miss" {
		t.Errorf("first query X-Cache = %q, want miss", got.Header().Get("X-Cache"))
	}
	if got := do(t, s, cohortURL(where)); got.Header().Get("X-Cache") != "hit" {
		t.Errorf("repeat query X-Cache = %q, want hit", got.Header().Get("X-Cache"))
	}
	if got := do(t, s, cohortURL(variant)); got.Header().Get("X-Cache") != "hit" {
		t.Errorf("variant spelling X-Cache = %q, want hit (shared canonical key)", got.Header().Get("X-Cache"))
	}

	rec := do(t, s, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 || st.Cache.Hits != 2 {
		t.Errorf("cache counters = %+v, want 1 miss / 2 hits", st.Cache)
	}
	if ep := st.Endpoints["/v1/cohort"]; ep.Requests != 3 || ep.Errors != 0 {
		t.Errorf("cohort endpoint counters = %+v, want 3 requests / 0 errors", ep)
	}
	if len(st.Index) == 0 {
		t.Error("stats carry no index dimensions")
	}
	// A generated corpus maps no snapshot file.
	if !strings.Contains(rec.Body.String(), `"mapped_bytes":0`) {
		t.Errorf("stats runtime of a generated corpus: %+v, want mapped_bytes 0", st.Runtime)
	}
}

// TestCanonicalizationSharedLRU is the canonicalization contract of the
// response cache: every spelling of one predicate canonicalizes to the
// same form, so all of them land on one serve LRU entry.
func TestCanonicalizationSharedLRU(t *testing.T) {
	variants := []string{
		"dur > 1800 and exit != success",
		"(dur > 1800) && (exit != 'success')",
		`DUR > "1800" AND NOT exit == "success"`,
	}
	// All spellings must canonicalize identically...
	canon := ""
	for _, v := range variants {
		e, err := sel.Parse(v)
		if err != nil {
			t.Fatalf("parse %q: %v", v, err)
		}
		if canon == "" {
			canon = e.String()
		} else if e.String() != canon {
			t.Fatalf("canonical drift: %q -> %q, want %q", v, e.String(), canon)
		}
	}
	// ...and share one serve LRU entry (miss, then hits).
	s := newTestServer(t)
	for i, v := range variants {
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if got := do(t, s, cohortURL(v)); got.Header().Get("X-Cache") != want {
			t.Errorf("serve LRU: %q X-Cache = %q, want %q", v, got.Header().Get("X-Cache"), want)
		}
	}
}

func TestProfileEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "/v1/profile")
	if rec.Code != http.StatusOK {
		t.Fatalf("profile: %d %s", rec.Code, rec.Body.String())
	}
	var resp cohortResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// The profile's fields equal the reference walks' (core's
	// TestFusedScanMatchesLegacy); here the endpoint must serve them.
	d := testDataset(t)
	p, err := d.FusedScan(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Summary; resp.Summary != want || want.Jobs != d.JobView().N || want.RASTotal != d.EventView().N {
		t.Errorf("profile summary = %+v, want %+v (%d jobs, %d events)", resp.Summary, want, d.JobView().N, d.EventView().N)
	}
}

func TestExperimentEndpoint(t *testing.T) {
	s := newTestServer(t)
	rec := do(t, s, "/v1/experiments/E1")
	if rec.Code != http.StatusOK {
		t.Fatalf("E1: %d %s", rec.Code, rec.Body.String())
	}
	var resp experimentResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != "E1" || len(resp.Metrics) == 0 || len(resp.Tables) == 0 {
		t.Errorf("E1 response incomplete: %+v", resp)
	}
	// Case-insensitive id, served from the cache.
	if rec := do(t, s, "/v1/experiments/e1"); rec.Code != http.StatusOK {
		t.Errorf("e1: %d", rec.Code)
	}
	if rec := do(t, s, "/v1/experiments/E99"); rec.Code != http.StatusNotFound {
		t.Errorf("E99: %d, want 404", rec.Code)
	}
}

// TestWarm pins the cold-start contract: Warm leaves the whole-corpus
// profile resident, so the first /v1/profile is a cache hit, and builds no
// selection index, nor does /v1/stats; a cohort query then builds exactly
// the dimensions its predicate names.
func TestWarm(t *testing.T) {
	src := testDataset(t)
	d, err := core.NewDatasetFromViews(src.IO, src.JobView(), src.TaskView(), src.EventView())
	if err != nil {
		t.Fatal(err)
	}
	env := experiments.NewEnvFromDataset(d)
	env.Parallelism = 1
	s := New(env, Options{Parallelism: 1})
	if _, err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	built := func() []string {
		var dims []string
		for _, st := range d.IndexStats() {
			if st.Built {
				dims = append(dims, st.Domain+"."+st.Column)
			}
		}
		return dims
	}
	if rec := do(t, s, "/v1/profile"); rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("profile after Warm: X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
	}
	if rec := do(t, s, "/v1/stats"); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	if dims := built(); len(dims) != 0 {
		t.Errorf("after Warm and /v1/stats, built dimensions %v, want none", dims)
	}
	if rec := do(t, s, cohortURL("exit == system and nodes >= 2048 and rack == R00 and time >= 2000-01-01")); rec.Code != http.StatusOK {
		t.Fatalf("cohort: %d %s", rec.Code, rec.Body.String())
	}
	if dims, want := built(), []string{"job.exit", "event.rack"}; !slices.Equal(dims, want) {
		t.Errorf("after one cohort query, built dimensions %v, want %v", dims, want)
	}
}

// TestMaxInflightShedding floods a server whose limiter admits one
// request while a slow cohort computation holds the only slot; the
// concurrent burst must shed with 429, not queue.
func TestMaxInflightShedding(t *testing.T) {
	env := experiments.NewEnvFromDataset(testDataset(t))
	env.Parallelism = 1
	s := New(env, Options{Parallelism: 1, MaxInflight: 1})

	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	// Occupy the single limiter slot with a handler that blocks.
	go func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
		s.limited(&s.epStats, func(w http.ResponseWriter, r *http.Request) {
			once.Do(func() { close(entered) })
			<-release
		})(rec, req)
	}()
	<-entered
	rec := do(t, s, "/v1/stats")
	close(release)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("burst over max-inflight: %d, want 429", rec.Code)
	}
}

// TestConcurrentStampede is the load test: many clients hammer a small
// predicate set concurrently. Every response must be 200 with bytes
// identical to the sequential answer, and the cache must have computed
// each distinct cohort exactly once (singleflight + LRU).
func TestConcurrentStampede(t *testing.T) {
	s := newTestServer(t)
	wheres := []string{
		"exit == system",
		"nodes >= 2048",
		"sev == FATAL",
		"dur > 3600",
	}
	// Sequential reference bodies.
	want := make(map[string]string, len(wheres))
	ref := newTestServer(t)
	for _, wh := range wheres {
		rec := do(t, ref, cohortURL(wh))
		if rec.Code != http.StatusOK {
			t.Fatalf("reference %q: %d", wh, rec.Code)
		}
		want[wh] = rec.Body.String()
	}

	const clients = 32
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients*rounds*len(wheres))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				wh := wheres[(c+r)%len(wheres)]
				rec := do(t, s, cohortURL(wh))
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("%q: status %d", wh, rec.Code)
					continue
				}
				if rec.Body.String() != want[wh] {
					errs <- fmt.Sprintf("%q: body diverged under concurrency", wh)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := s.cache.Stats()
	if st.Misses != uint64(len(wheres)) {
		t.Errorf("distinct cohorts computed %d times, want %d (stats %+v)", st.Misses, len(wheres), st)
	}
	total := clients * rounds
	if st.Hits+st.Collapsed+st.Misses != uint64(total) {
		t.Errorf("hits+collapsed+misses = %d, want %d", st.Hits+st.Collapsed+st.Misses, total)
	}
}
