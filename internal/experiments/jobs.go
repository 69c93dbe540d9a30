package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/joblog"
	"repro/internal/report"
	"repro/internal/stats"
)

// E1 regenerates the dataset-summary table (Table I): span, job/task/event
// counts, core-hours, RAS composition.
func E1(env *Env) (*Result, error) {
	p, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	s := p.Summary
	t := &report.Table{
		Title:   "E1 (Table I): dataset summary",
		Columns: []string{"quantity", "value"},
		Notes:   []string{"paper anchors: 2001 days, 32.44B core-hours"},
	}
	t.AddRow("observation days", s.Days)
	t.AddRow("jobs", s.Jobs)
	t.AddRow("tasks (runs)", s.Tasks)
	t.AddRow("users", s.Users)
	t.AddRow("projects", s.Projects)
	t.AddRow("core-hours (billions)", s.CoreHours/1e9)
	t.AddRow("RAS events", s.RASTotal)
	t.AddRow("RAS FATAL", s.RASFatal)
	t.AddRow("RAS WARN", s.RASWarn)
	t.AddRow("RAS INFO", s.RASInfo)
	t.AddRow("I/O records", s.IORecords)
	t.AddRow("failed jobs", s.FailedJobs)
	return &Result{
		ID: "E1", Description: "dataset summary", Tables: []*report.Table{t},
		Metrics: map[string]float64{
			"days":         s.Days,
			"jobs":         float64(s.Jobs),
			"core_hours_b": s.CoreHours / 1e9,
			"ras_events":   float64(s.RASTotal),
			"ras_fatal":    float64(s.RASFatal),
			"failed_jobs":  float64(s.FailedJobs),
			"users":        float64(s.Users),
			"projects":     float64(s.Projects),
		},
	}, nil
}

// E2 regenerates the workload-concentration analysis: Lorenz/Gini of jobs
// and core-hours over users and projects.
func E2(env *Env) (*Result, error) {
	p, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E2", Description: "workload concentration", Metrics: map[string]float64{}}
	for _, by := range []core.GroupBy{core.ByUser, core.ByProject} {
		conc, err := env.Concentration(by)
		if err != nil {
			return nil, err
		}
		t := &report.Table{
			Title:   fmt.Sprintf("E2: concentration by %s", by),
			Columns: []string{"measure", "value"},
		}
		t.AddRow("groups", conc.Groups)
		t.AddRow("gini(jobs)", conc.GiniJobs)
		t.AddRow("gini(core-hours)", conc.GiniCoreHours)
		t.AddRow("top-10 job share", conc.Top10JobShare)
		t.AddRow("top-10 core-hour share", conc.Top10CHShare)
		res.Tables = append(res.Tables, t)
		res.Metrics[fmt.Sprintf("gini_jobs_%s", by)] = conc.GiniJobs
		res.Metrics[fmt.Sprintf("top10_job_share_%s", by)] = conc.Top10JobShare
		res.Metrics[fmt.Sprintf("top10_ch_share_%s", by)] = conc.Top10CHShare

		// Lorenz curve figure over jobs.
		groups := p.Groups(by)
		jobs := make([]float64, len(groups))
		for i, g := range groups {
			jobs[i] = float64(g.Jobs)
		}
		ps, shares, err := stats.Lorenz(jobs, 20)
		if err != nil {
			return nil, err
		}
		res.Figures = append(res.Figures, &report.Figure{
			Title:  fmt.Sprintf("E2 (Fig): Lorenz curve of jobs per %s", by),
			XLabel: "population share", YLabel: "job share",
			Series: []report.Series{{Name: by.String(), X: ps, Y: shares}},
		})
	}
	return res, nil
}

// E3 regenerates the job-structure distribution figure: jobs per block
// size, tasks per job, runtime distribution.
func E3(env *Env) (*Result, error) {
	s, err := env.Orders().StructureSummary()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "E3: job structure",
		Columns: []string{"attribute", "mean", "median", "p95", "max"},
	}
	t.AddRow("nodes", s.Nodes.Mean, s.Nodes.Median, s.Nodes.P95, s.Nodes.Max)
	t.AddRow("tasks/job", s.Tasks.Mean, s.Tasks.Median, s.Tasks.P95, s.Tasks.Max)
	t.AddRow("runtime (h)", s.RuntimeH.Mean, s.RuntimeH.Median, s.RuntimeH.P95, s.RuntimeH.Max)
	t.AddRow("core-hours", s.CoreHours.Mean, s.CoreHours.Median, s.CoreHours.P95, s.CoreHours.Max)

	sizes := make([]int, 0, len(s.SizeHistogram))
	for k := range s.SizeHistogram {
		sizes = append(sizes, k)
	}
	sort.Ints(sizes)
	var xs, ys []float64
	for _, size := range sizes {
		xs = append(xs, float64(size))
		ys = append(ys, float64(s.SizeHistogram[size]))
	}
	fig := &report.Figure{
		Title:  "E3 (Fig): jobs per block size",
		XLabel: "nodes", YLabel: "jobs",
		Series: []report.Series{{Name: "jobs", X: xs, Y: ys}},
	}
	return &Result{
		ID: "E3", Description: "job structure", Tables: []*report.Table{t},
		Figures: []*report.Figure{fig},
		Metrics: map[string]float64{
			"mean_nodes":     s.Nodes.Mean,
			"mean_tasks":     s.Tasks.Mean,
			"mean_runtime_h": s.RuntimeH.Mean,
			"small_job_share": func() float64 {
				return float64(s.SizeHistogram[512]) / float64(s.Nodes.N)
			}(),
		},
	}, nil
}

// E4 regenerates the headline failure table: failures per exit family and
// the user-vs-system split (paper: 99,245 failures, 99.4% user-caused).
func E4(env *Env) (*Result, error) {
	p, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	cls, joint := p.Exit, p.Joint
	t := &report.Table{
		Title:   "E4: job failures by exit family",
		Columns: []string{"family", "jobs", "share of failures"},
		Notes:   []string{"paper anchors: 99,245 failures, 99.4% user-caused"},
	}
	for _, f := range joblog.FailureFamilies() {
		n := cls.FamilyCount(f)
		if n == 0 {
			continue
		}
		t.AddRow(string(f), n, float64(n)/float64(cls.Failed))
	}
	t2 := &report.Table{
		Title:   "E4: failure attribution",
		Columns: []string{"method", "failures", "user-caused", "system-caused", "user share"},
	}
	t2.AddRow("exit-status only", cls.Failed, cls.UserCaused, cls.SystemCause, cls.UserShare())
	t2.AddRow("joint (RAS-correlated)", joint.Failed, joint.UserCaused, joint.SystemCause, joint.UserShare())
	return &Result{
		ID: "E4", Description: "failure breakdown", Tables: []*report.Table{t, t2},
		Metrics: map[string]float64{
			"failures":        float64(cls.Failed),
			"user_share":      cls.UserShare(),
			"system_failures": float64(cls.SystemCause),
			"joint_system":    float64(joint.SystemCause),
			"failure_rate":    float64(cls.Failed) / float64(cls.Total),
		},
	}, nil
}

// E5 regenerates the execution-length CDF comparison of succeeded vs
// failed jobs. The per-outcome series come out of one filtered walk over the
// shared runtime order already sorted, and the ECDFs and two-sample KS reuse
// them without copying.
func E5(env *Env) (*Result, error) {
	succ, fail := env.Orders().ExecutionLengthCDFs()
	se, err := stats.NewECDFSorted(succ)
	if err != nil {
		return nil, err
	}
	fe, err := stats.NewECDFSorted(fail)
	if err != nil {
		return nil, err
	}
	sx, sp := se.Series(21)
	fx, fp := fe.Series(21)
	fig := &report.Figure{
		Title:  "E5 (Fig): execution-length CDF by outcome",
		XLabel: "seconds", YLabel: "P(X<=x)",
		Series: []report.Series{
			{Name: "succeeded", X: sx, Y: sp},
			{Name: "failed", X: fx, Y: fp},
		},
	}
	ks, err := stats.KSTwoSampleSorted(succ, fail)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID: "E5", Description: "execution-length CDFs",
		Figures: []*report.Figure{fig},
		Metrics: map[string]float64{
			"median_success_s": se.Quantile(0.5),
			"median_failed_s":  fe.Quantile(0.5),
			"ks_two_sample":    ks,
		},
	}, nil
}

// E6 regenerates the best-fit distribution table per exit family — the
// paper's Weibull / Pareto / inverse-Gaussian / Erlang-exponential result.
func E6(env *Env) (*Result, error) {
	fits, err := env.FamilyFits()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "E6 (Table): best-fit execution-length distribution per exit family",
		Columns: []string{"family", "n", "best fit", "params", "KS", "runner-up", "runner KS"},
		Notes:   []string{"paper: best fit includes Weibull, Pareto, inverse Gaussian, Erlang/exponential depending on exit code"},
	}
	metrics := map[string]float64{}
	for _, f := range fits {
		best := f.Best()
		runner := "-"
		runnerKS := 0.0
		if len(f.Results) > 1 && f.Results[1].Err == nil {
			runner = f.Results[1].Family
			runnerKS = f.Results[1].KS
		}
		t.AddRow(string(f.Family), f.N, best.Family, dist.ParamString(best.Dist), best.KS, runner, runnerKS)
		metrics["ks_"+string(f.Family)] = best.KS
		metrics["n_"+string(f.Family)] = float64(f.N)
		metrics["median_s_"+string(f.Family)] = f.Summary.Median
	}
	// Baseline ablation: exponential-only fitting (no model selection).
	tBase := &report.Table{
		Title:   "E6 (ablation): exponential-only baseline vs model selection",
		Columns: []string{"family", "exp KS", "selected KS", "improvement"},
	}
	for _, f := range fits {
		var expKS float64
		for _, r := range f.Results {
			if r.Family == "exponential" && r.Err == nil {
				expKS = r.KS
			}
		}
		if expKS == 0 {
			continue
		}
		tBase.AddRow(string(f.Family), expKS, f.Best().KS, expKS/f.Best().KS)
	}
	// Second ablation: MLE vs KS-minimizing parameter search. Polishing the
	// MLE winner by coordinate descent on the KS statistic buys a slightly
	// smaller KS at much higher cost — quantified here per family.
	tPolish := &report.Table{
		Title:   "E6 (ablation): MLE vs KS-polished parameters",
		Columns: []string{"family", "MLE KS", "polished KS", "gain"},
	}
	runtimes := env.Orders().FailureRuntimes()
	for _, f := range fits {
		best := f.Best()
		p, ok := best.Dist.(dist.Parametric)
		if !ok || best.Err != nil {
			continue
		}
		series := runtimes[joblog.FamilyCode(f.Family)]
		if len(series) == 0 {
			continue
		}
		// One copy, sorted in place: Thin copies a longer series and
		// returns a shorter one as is, and the shared series must keep
		// its job order.
		raw := core.Thin(series, 5000)
		if len(raw) == len(series) {
			raw = slices.Clone(series)
		}
		stats.SortFloat64s(raw)
		_, polishedKS, mleKS, err := dist.KSPolish(p, dist.NewSampleSorted(raw), 20)
		if err != nil {
			return nil, err
		}
		tPolish.AddRow(string(f.Family), mleKS, polishedKS, mleKS/math.Max(polishedKS, 1e-12))
		metrics["polish_gain_"+string(f.Family)] = mleKS / math.Max(polishedKS, 1e-12)
	}
	return &Result{
		ID: "E6", Description: "best-fit distributions",
		Tables:  []*report.Table{t, tBase, tPolish},
		Metrics: metrics,
	}, nil
}
