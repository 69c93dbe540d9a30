// Package experiments regenerates every table and figure of the paper's
// evaluation (the E1–E23 index in DESIGN.md) from a synthetic corpus. Each
// experiment returns renderable tables/figures plus a flat metric map that
// EXPERIMENTS.md and the regression tests compare against the paper's
// anchors.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
)

// Env is the shared evaluation environment: one generated corpus and its
// indexed dataset, plus lazily memoized cross-experiment analyses (the
// classifications five experiments would otherwise recompute from scratch).
type Env struct {
	Cfg    sim.Config
	Corpus *sim.Corpus
	D      *core.Dataset
	// Parallelism bounds the workers used by the parallel substrates the
	// experiments call (distribution fitting, the filter-window sweep);
	// ≤ 0 means GOMAXPROCS. Results are identical at any setting.
	Parallelism int

	cache envCache
}

// envCache memoizes analyses shared across experiments. It is held by
// value, so every Env — a constructor's or a bare &Env{D: d} literal —
// memoizes; an Env must therefore not be copied once in use. sync.Once
// makes each analysis safe to request from concurrently running
// experiments while computing it exactly once.
//
// Beyond the classifications it holds the derived-series cache: the per-job
// core-hours series and the default-rule MTTI / availability / survival
// results with their interval and repair-time Samples — the series
// E12/E22/E23 would otherwise re-extract and re-sort per experiment.
type envCache struct {
	exitOnce  sync.Once
	exit      *core.Classification
	jointOnce sync.Once
	joint     *core.Classification

	// orders is the job-order layer RunAll shares across a pass, nil
	// outside one; ordersPins counts the passes in flight.
	ordersMu      sync.Mutex
	ordersPins    int
	orders        *core.JobOrders
	coreHoursOnce sync.Once
	coreHours     []float64
	mttiOnce      sync.Once
	mtti          *core.MTTIResult
	mttiErr       error
	availOnce     sync.Once
	avail         *core.AvailabilityResult
	availErr      error
	survOnce      sync.Once
	surv          *core.SurvivalResult
	survErr       error

	// Fused-scan profile plus the memoizations layered on it (see
	// fused.go). profileOnce guards the single shared scan RunAll triggers
	// instead of ~20 private corpus walks.
	profileOnce sync.Once
	profile     *core.FusedProfile
	profileErr  error

	concUserOnce sync.Once
	concUser     *core.ConcentrationResult
	concUserErr  error
	concProjOnce sync.Once
	concProj     *core.ConcentrationResult
	concProjErr  error

	fatalIncOnce sync.Once
	fatalInc     []core.Incident
	fatalIncErr  error
	warnIncOnce  sync.Once
	warnInc      []core.Incident
	warnIncErr   error
}

// NewEnv generates a corpus with at most workers goroutines (≤ 0 means
// GOMAXPROCS) and indexes it. The corpus — and therefore every downstream
// experiment — is identical for any worker count; the bound also becomes
// the environment's Parallelism.
func NewEnv(cfg sim.Config, workers int) (*Env, error) {
	c, err := sim.GenerateParallel(cfg, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Env{Cfg: cfg, Corpus: c, D: d, Parallelism: workers}, nil
}

// NewEnvFromDataset wraps an already-loaded dataset (e.g. a CSV corpus read
// back by mirareport) as an evaluation environment.
func NewEnvFromDataset(d *core.Dataset) *Env {
	return &Env{D: d}
}

// ClassifyByExit returns the exit-status-only classification, computed once
// per environment no matter how many experiments (or workers) request it.
func (e *Env) ClassifyByExit() *core.Classification {
	e.cache.exitOnce.Do(func() { e.cache.exit = e.D.ClassifyByExit() })
	return e.cache.exit
}

// ClassifyJoint returns the joint (RAS-correlated) classification under
// core.DefaultJointOptions, computed once per environment.
func (e *Env) ClassifyJoint() *core.Classification {
	e.cache.jointOnce.Do(func() { e.cache.joint = e.D.ClassifyJoint(core.DefaultJointOptions()) })
	return e.cache.joint
}

// Orders returns a job-order layer over D: each job attribute E3, E5, E8,
// E17 and E20 sort or rank is sorted on first use and shared by every
// holder of the layer. Creating one is O(1). Within a RunAll pass every call
// returns the pass's layer, so each attribute is sorted once per pass;
// outside one (an experiment run on its own, as mirad serves each at most
// once) every call returns a fresh layer, which dies with its run instead of
// living as long as the Env. An experiment calls it once per run.
func (e *Env) Orders() *core.JobOrders {
	c := &e.cache
	c.ordersMu.Lock()
	defer c.ordersMu.Unlock()
	if c.orders != nil {
		return c.orders
	}
	return core.NewJobOrders(e.D)
}

// shareOrders makes Orders return one layer until release is called.
// Passes may overlap; the layer is dropped when the last one releases.
func (e *Env) shareOrders() (release func()) {
	c := &e.cache
	c.ordersMu.Lock()
	defer c.ordersMu.Unlock()
	if c.ordersPins == 0 {
		c.orders = core.NewJobOrders(e.D)
	}
	c.ordersPins++
	return func() {
		c.ordersMu.Lock()
		defer c.ordersMu.Unlock()
		if c.ordersPins--; c.ordersPins == 0 {
			c.orders = nil
		}
	}
}

// JobCoreHours returns the per-job core-hours series, aligned with D.Jobs
// (use D.JobPos to index it by job id), computed once per environment.
func (e *Env) JobCoreHours() []float64 {
	e.cache.coreHoursOnce.Do(func() {
		ch := make([]float64, len(e.D.Jobs))
		for i := range e.D.Jobs {
			ch[i] = e.D.Jobs[i].CoreHours()
		}
		e.cache.coreHours = ch
	})
	return e.cache.coreHours
}

// MTTI returns the default-rule mean-time-to-interruption analysis,
// computed once per environment. Experiments needing a non-default filter
// rule should call D.MTTI directly.
func (e *Env) MTTI() (*core.MTTIResult, error) {
	e.cache.mttiOnce.Do(func() { e.cache.mtti, e.cache.mttiErr = e.D.MTTI(core.DefaultFilterRule()) })
	return e.cache.mtti, e.cache.mttiErr
}

// LostCoreHours sums the core-hours of the jobs interrupted in r using the
// memoized per-job core-hours series.
func (e *Env) LostCoreHours(r *core.MTTIResult) float64 {
	ch := e.JobCoreHours()
	total := 0.0
	for _, id := range r.InterruptedJobs() {
		if pos, ok := e.D.JobPos(id); ok {
			total += ch[pos]
		}
	}
	return total
}

// Availability returns the service-action availability analysis (with its
// repair-time Sample), computed once per environment.
func (e *Env) Availability() (*core.AvailabilityResult, error) {
	e.cache.availOnce.Do(func() { e.cache.avail, e.cache.availErr = e.D.Availability() })
	return e.cache.avail, e.cache.availErr
}

// Survival returns the Kaplan–Meier time-to-user-failure analysis, computed
// once per environment.
func (e *Env) Survival() (*core.SurvivalResult, error) {
	e.cache.survOnce.Do(func() { e.cache.surv, e.cache.survErr = e.D.Survival() })
	return e.cache.surv, e.cache.survErr
}

// Result is one experiment's regenerated artifact.
type Result struct {
	ID          string
	Description string
	Tables      []*report.Table
	Figures     []*report.Figure
	// Metrics is the flat key→value view used for paper-vs-measured
	// comparison and the regression tests.
	Metrics map[string]float64
}

// Experiment is a runnable table/figure regeneration.
type Experiment struct {
	ID          string
	Description string
	Run         func(*Env) (*Result, error)
}

// experimentList is the canonical experiment registry; All returns copies
// of it and byID indexes it at init.
var experimentList = []Experiment{
	{"E1", "dataset summary (Table I)", E1},
	{"E2", "workload concentration by user/project", E2},
	{"E3", "job structure distributions", E3},
	{"E4", "exit-status breakdown; user vs system share", E4},
	{"E5", "execution-length CDFs by outcome", E5},
	{"E6", "best-fit distributions per exit family", E6},
	{"E7", "failure correlation with users/projects", E7},
	{"E8", "failure rate vs job structure", E8},
	{"E9", "RAS severity/category/component profile", E9},
	{"E10", "spatial locality of FATAL events", E10},
	{"E11", "similarity-filtering sensitivity sweep", E11},
	{"E12", "MTTI and interruption-interval fit", E12},
	{"E13", "I/O behavior vs job outcome", E13},
	{"E14", "temporal patterns of jobs and failures", E14},
	{"E15", "system interruptions vs user consumption", E15},
	{"E16", "WARN→FATAL precursor lead-time analysis", E16},
	{"E17", "queue wait and walltime-request accuracy", E17},
	{"E18", "reliability over the system's life (bathtub)", E18},
	{"E19", "compute cost of failures (wasted core-hours)", E19},
	{"E20", "resubmission behaviour and outcome repetition", E20},
	{"E21", "torus spatial correlation of incidents", E21},
	{"E22", "availability and repair-time distribution", E22},
	{"E23", "Kaplan–Meier survival of jobs vs user failure", E23},
}

// byID indexes the registry once; ByID was previously a linear scan over a
// freshly allocated slice on every call.
var byID = func() map[string]Experiment {
	m := make(map[string]Experiment, len(experimentList))
	for _, e := range experimentList {
		m[e.ID] = e
	}
	return m
}()

// All lists every experiment in index order. The returned slice is a copy;
// callers may reorder it freely.
func All() []Experiment {
	return append([]Experiment(nil), experimentList...)
}

// ByID returns the experiment with the given ID. The lookup is
// case-insensitive, so the -exp flag accepts e6 as well as E6.
func ByID(id string) (Experiment, bool) {
	e, ok := byID[strings.ToUpper(id)]
	return e, ok
}

// sortedMetricKeys returns the metric names in stable order for rendering.
func sortedMetricKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MetricsTable renders a result's metrics as a two-column table.
func MetricsTable(r *Result) *report.Table {
	t := &report.Table{Title: r.ID + " metrics", Columns: []string{"metric", "value"}}
	for _, k := range sortedMetricKeys(r.Metrics) {
		t.AddRow(k, r.Metrics[k])
	}
	return t
}
