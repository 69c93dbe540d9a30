package experiments

import (
	"repro/internal/core"
	"repro/internal/sel"
)

// This file is the experiments-side face of the selection layer: cohort
// profiles — the full fused analysis suite restricted to the jobs and
// events a -where predicate selects. Cohort profiles are not memoized
// here: mirad caches rendered responses in its own LRU, and mirareport
// -where issues one query per process.

// CohortProfileExpr returns the fused profile of the cohort a parsed -where
// predicate (sel.Parse) selects (see core.FusedScanWhere and DESIGN.md
// §14). A nil predicate is the whole corpus — the shared, memoized
// FusedScan profile; any other predicate is pushed down into a fresh
// core.FusedScanWhere.
func (e *Env) CohortProfileExpr(expr sel.Expr) (*core.FusedProfile, error) {
	if expr == nil {
		return e.fusedProfile()
	}
	return e.D.FusedScanWhere(expr, e.Parallelism)
}
