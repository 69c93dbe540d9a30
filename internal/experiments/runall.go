package experiments

import (
	"context"
	"fmt"

	"repro/internal/par"
)

// RunAll runs every experiment of the suite (the All index) against the
// environment on at most workers goroutines (≤ 0 means GOMAXPROCS, 1 is
// fully serial). Results are returned in index order — E1 first — no matter
// which worker finished first, and each Result is identical to a serial
// run: the experiments only read the shared dataset, and the analyses
// memoized on Env are par.Memo values, so concurrent experiments compute
// them exactly once. The experiments share one job-order layer (Env.Orders)
// for the pass (Env.Pass), which is dropped when the pass ends unless an
// enclosing pass still holds it.
func RunAll(env *Env, workers int) ([]*Result, error) {
	release := env.Pass()
	defer release()
	exps := All()
	results, err := par.Map(context.Background(), exps, workers, func(i int, exp Experiment) (*Result, error) {
		res, err := exp.Run(env)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp.ID, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
