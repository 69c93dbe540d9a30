// Package experiments regenerates every table and figure of the paper's
// evaluation (the E1–E23 index in DESIGN.md) from a synthetic corpus. Each
// experiment returns renderable tables/figures plus a flat metric map that
// EXPERIMENTS.md and the regression tests compare against the paper's
// anchors.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/sim"
)

// Env is the shared evaluation environment: one indexed dataset plus
// lazily memoized cross-experiment analyses. It is the one place a
// whole-corpus number is derived: the experiments and the takeaways read
// the same accessors.
type Env struct {
	D *core.Dataset
	// Parallelism bounds the workers used by the parallel substrates the
	// experiments call (distribution fitting, the filter-window sweep);
	// ≤ 0 means GOMAXPROCS. Results are identical at any setting.
	Parallelism int

	cache envCache
}

// envCache memoizes analyses shared across experiments. It is held by
// value, so every Env — a constructor's or a bare &Env{D: d} literal —
// memoizes; an Env must therefore not be copied once in use. Each
// par.Memo makes its analysis safe to request from concurrently running
// experiments while computing it exactly once.
//
// Every memo has a shipped reader: the default-rule MTTI / availability /
// survival results with their interval and repair-time Samples
// (E12/E18/E22/E23), E6's per-family fits and E13's I/O comparison (both
// also quoted by the takeaways), and the fused profile with the analyses
// layered on it.
type envCache struct {
	// orders is the job-order layer a pass shares, nil outside one;
	// ordersPins counts the passes in flight.
	ordersMu   sync.Mutex
	ordersPins int
	orders     *core.JobOrders
	mtti       par.Memo[*core.MTTIResult]
	avail      par.Memo[*core.AvailabilityResult]
	surv       par.Memo[*core.SurvivalResult]
	fits       par.Memo[[]core.FamilyFit]
	io         par.Memo[*core.IOCorrelation]

	// Fused-scan profile plus the memoizations layered on it (see
	// fused.go). profile is the single shared scan RunAll triggers instead
	// of ~20 private corpus walks; conc is indexed by by-core.ByUser.
	profile  par.Memo[*core.FusedProfile]
	conc     [2]par.Memo[*core.ConcentrationResult]
	fatalInc par.Memo[core.Incidents]
	warnInc  par.Memo[core.Incidents]
}

// NewEnv generates a corpus with at most workers goroutines (≤ 0 means
// GOMAXPROCS) and indexes it; the Env keeps only the dataset. The corpus —
// and therefore every downstream experiment — is identical for any worker
// count; the bound also becomes the environment's Parallelism.
func NewEnv(cfg sim.Config, workers int) (*Env, error) {
	c, err := sim.GenerateParallel(cfg, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Env{D: d, Parallelism: workers}, nil
}

// NewEnvFromDataset wraps an already-loaded dataset (e.g. a CSV corpus read
// back by mirareport) as an evaluation environment.
func NewEnvFromDataset(d *core.Dataset) *Env {
	return &Env{D: d}
}

// OpenEnv is the corpus bootstrap of the commands that analyse one corpus
// (mirareport, mirad). With in empty it generates a corpus: the
// paper-scale config, or the 30-day one if small, with days and seed
// overriding the config's when nonzero, announced on log first.
// Otherwise it loads the corpus directory in, in the given format
// ("auto", "csv" or "pack"). parallelism becomes the Env's Parallelism
// and bounds the generation.
func OpenEnv(in, format string, days int, seed int64, small bool, parallelism int, log io.Writer) (*Env, error) {
	if in == "" {
		cfg := sim.DefaultConfig()
		if small {
			cfg = sim.SmallConfig()
		}
		if days > 0 {
			cfg.Days = days
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		fmt.Fprintf(log, "generating %d-day corpus (seed %d)...\n", cfg.Days, cfg.Seed)
		return NewEnv(cfg, parallelism)
	}
	ft, err := pack.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	d, err := pack.LoadDir(in, ft)
	if err != nil {
		return nil, err
	}
	env := NewEnvFromDataset(d)
	env.Parallelism = parallelism
	return env, nil
}

// Orders returns a job-order layer over D: each job attribute E3, E5, E8,
// E17, E20 and the takeaways sort or rank is sorted on first use and shared
// by every holder of the layer. Creating one is O(1). Within a Pass every
// call returns the pass's layer, so each attribute is sorted once per pass;
// outside one (an experiment run on its own, as mirad serves each at most
// once) every call returns a fresh layer, which dies with its run instead of
// living as long as the Env. An analysis calls it once per run.
func (e *Env) Orders() *core.JobOrders {
	c := &e.cache
	c.ordersMu.Lock()
	defer c.ordersMu.Unlock()
	if c.orders != nil {
		return c.orders
	}
	return core.NewJobOrders(e.D)
}

// Pass makes Orders return one layer until release is called. Passes may
// nest or overlap (mirareport holds one around RunAll's and the
// takeaways); the layer is dropped when the last one releases.
func (e *Env) Pass() (release func()) {
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

// MTTI returns the default-rule mean-time-to-interruption analysis,
// computed once per environment. Experiments needing a non-default filter
// rule should call D.MTTI directly.
func (e *Env) MTTI() (*core.MTTIResult, error) {
	return e.cache.mtti.Get(func() (*core.MTTIResult, error) { return e.D.MTTI(core.DefaultFilterRule()) })
}

// Availability returns the service-action availability analysis (with its
// repair-time Sample), computed once per environment.
func (e *Env) Availability() (*core.AvailabilityResult, error) {
	return e.cache.avail.Get(e.D.Availability)
}

// Survival returns the Kaplan–Meier time-to-user-failure analysis, computed
// once per environment.
func (e *Env) Survival() (*core.SurvivalResult, error) {
	return e.cache.surv.Get(e.D.Survival)
}

// FamilyFits returns E6's per-exit-family execution-length fits, computed
// once per environment from the Orders layer's FailureRuntimes (within a
// pass, the series E6's polish ablation thins); the takeaways quote the
// same fits.
func (e *Env) FamilyFits() ([]core.FamilyFit, error) {
	return e.cache.fits.Get(func() ([]core.FamilyFit, error) {
		return e.Orders().FitExecutionLengths(core.FitOptions{MinSamples: 100, MaxSamples: 50000, Parallelism: e.Parallelism})
	})
}

// IOBehavior returns E13's I/O-vs-outcome comparison, computed once per
// environment; the takeaways quote the same comparison.
func (e *Env) IOBehavior() (*core.IOCorrelation, error) {
	return e.cache.io.Get(e.D.IOBehavior)
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
