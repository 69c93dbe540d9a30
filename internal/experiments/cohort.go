package experiments

import (
	"repro/internal/core"
	"repro/internal/sel"
)

// This file is the experiments-side face of the selection layer: cohort
// results — the Table-I summary, exit families and user groups of the
// jobs and events a -where predicate selects. Cohorts are not memoized
// here: mirad caches rendered responses in its own LRU, and mirareport
// -where issues one query per process.

// CohortProfileExpr returns the Cohort a parsed -where predicate
// (sel.Parse) selects (see core.FusedScanWhere and DESIGN.md §14). A nil
// predicate is the whole corpus — the Cohort of the shared, memoized
// FusedScan profile; any other predicate is pushed down into a fresh
// core.FusedScanWhere.
func (e *Env) CohortProfileExpr(expr sel.Expr) (*core.Cohort, error) {
	if expr == nil {
		p, err := e.fusedProfile()
		if err != nil {
			return nil, err
		}
		return &p.Cohort, nil
	}
	return e.D.FusedScanWhere(expr, e.Parallelism)
}
