package experiments

import (
	"fmt"
	"time"

	"repro/internal/report"
)

// E16 regenerates the WARN→FATAL precursor (lead-time) analysis: how often
// fatal incidents are preceded by warning bursts on the same hardware, and
// with what lead time.
func E16(env *Env) (*Result, error) {
	t := &report.Table{
		Title:   "E16: WARN→FATAL precursor analysis by lookback window",
		Columns: []string{"lookback", "incidents", "with precursor", "coverage", "median lead (h)", "warn bursts", "alarm precision"},
	}
	metrics := map[string]float64{}
	lookbacks := []time.Duration{time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour}
	results, err := env.LeadTimes(lookbacks)
	if err != nil {
		return nil, err
	}
	for i, lookback := range lookbacks {
		res := results[i]
		t.AddRow(lookback.String(), res.Incidents, res.WithPrecursor, res.Coverage,
			res.MedianLeadH, res.WarnBursts, res.Precision)
		key := fmt.Sprintf("%dh", int(lookback.Hours()))
		metrics["coverage_"+key] = res.Coverage
		metrics["precision_"+key] = res.Precision
		if lookback == 12*time.Hour {
			metrics["median_lead_h"] = res.MedianLeadH
		}
	}
	return &Result{
		ID: "E16", Description: "precursor lead-time analysis",
		Tables: []*report.Table{t}, Metrics: metrics,
	}, nil
}

// E17 regenerates the queue-behaviour analysis: waiting time by job size
// and walltime-request accuracy by outcome.
func E17(env *Env) (*Result, error) {
	res, err := env.Orders().Scheduling()
	if err != nil {
		return nil, err
	}
	tw := &report.Table{
		Title:   "E17: queue wait by job size",
		Columns: []string{"nodes", "jobs", "median wait", "p95 wait"},
		Notes:   []string{fmt.Sprintf("Spearman(size, wait) = %.3f", res.SpearmanSizeWait)},
	}
	var xs, ys []float64
	for _, b := range res.WaitBySize {
		tw.AddRow(b.Nodes, b.Jobs, b.MedianWait.Round(time.Second).String(), b.P95Wait.Round(time.Second).String())
		xs = append(xs, float64(b.Nodes))
		ys = append(ys, b.MedianWait.Hours())
	}
	ta := &report.Table{
		Title:   "E17: walltime-request accuracy (runtime / requested)",
		Columns: []string{"outcome", "jobs", "median ratio", "p95 ratio", "share < 10%"},
		Notes:   []string{fmt.Sprintf("Pearson(requested, used) over successes = %.3f", res.PearsonReqUsed)},
	}
	metrics := map[string]float64{
		"spearman_size_wait": res.SpearmanSizeWait,
		"pearson_req_used":   res.PearsonReqUsed,
	}
	for _, a := range res.Accuracy {
		ta.AddRow(a.Outcome, a.Jobs, a.MedianRatio, a.P95Ratio, a.UnderTenPct)
		metrics["ratio_"+a.Outcome] = a.MedianRatio
		metrics["under10_"+a.Outcome] = a.UnderTenPct
	}
	fig := &report.Figure{
		Title:  "E17 (Fig): median queue wait vs job size",
		XLabel: "nodes", YLabel: "hours",
		Series: []report.Series{{Name: "median wait", X: xs, Y: ys}},
	}
	return &Result{
		ID: "E17", Description: "queue wait and walltime accuracy",
		Tables: []*report.Table{tw, ta}, Figures: []*report.Figure{fig},
		Metrics: metrics,
	}, nil
}

// E18 regenerates the reliability-over-life analysis: failure rate and
// MTTI per life phase (burn-in, mid-life, wear-out).
func E18(env *Env) (*Result, error) {
	const phases = 8
	life, err := env.LifePhases(phases)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "E18: reliability over the system's life",
		Columns: []string{"phase", "days", "jobs", "fail rate", "interruptions", "MTTI (days)"},
		Notes:   []string{"fault injection follows a bathtub hazard: burn-in, stable mid-life, mild wear-out"},
	}
	var xs, mttis, rates []float64
	for _, p := range life {
		t.AddRow(p.Label, fmt.Sprintf("%.0f-%.0f", p.StartDay, p.EndDay), p.Jobs, p.FailRate, p.Interruptions, p.MTTIDays)
		xs = append(xs, (p.StartDay+p.EndDay)/2)
		mttis = append(mttis, p.MTTIDays)
		rates = append(rates, p.FailRate)
	}
	fig := &report.Figure{
		Title:  "E18 (Fig): MTTI per life phase",
		XLabel: "day", YLabel: "MTTI (days)",
		Series: []report.Series{{Name: "mtti", X: xs, Y: mttis}},
	}
	metrics := map[string]float64{
		"first_phase_mtti": life[0].MTTIDays,
		"last_phase_mtti":  life[len(life)-1].MTTIDays,
		"phases":           float64(len(life)),
	}
	// Mid-life MTTI: mean of the middle phases.
	mid := 0.0
	cnt := 0
	for i := 2; i < len(life)-2; i++ {
		if life[i].MTTIDays > 0 {
			mid += life[i].MTTIDays
			cnt++
		}
	}
	if cnt > 0 {
		metrics["mid_life_mtti"] = mid / float64(cnt)
	}
	return &Result{
		ID: "E18", Description: "reliability over system life",
		Tables: []*report.Table{t}, Figures: []*report.Figure{fig},
		Metrics: metrics,
	}, nil
}

// E19 regenerates the failure-cost analysis: core-hours consumed by jobs
// that produced no result, by exit family and by root cause.
func E19(env *Env) (*Result, error) {
	p, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	w := p.Waste
	t := &report.Table{
		Title:   "E19: compute wasted by failures",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("total core-hours (B)", w.TotalCoreHours/1e9)
	t.AddRow("wasted core-hours (B)", w.WastedCoreHours/1e9)
	t.AddRow("wasted share", w.WastedShare)
	t.AddRow("wasted by user failures (B)", w.UserCoreHours/1e9)
	t.AddRow("wasted by system failures (M)", w.SystemCoreHours/1e6)
	tf := &report.Table{
		Title:   "E19: wasted core-hours by exit family",
		Columns: []string{"family", "jobs", "core-hours (M)", "share of waste"},
	}
	for _, row := range w.ByFamily {
		tf.AddRow(string(row.Family), row.Jobs, row.CoreHours/1e6, row.Share)
	}
	return &Result{
		ID: "E19", Description: "compute cost of failures",
		Tables: []*report.Table{t, tf},
		Metrics: map[string]float64{
			"wasted_share":      w.WastedShare,
			"wasted_ch_b":       w.WastedCoreHours / 1e9,
			"user_waste_ch_b":   w.UserCoreHours / 1e9,
			"system_waste_ch_m": w.SystemCoreHours / 1e6,
		},
	}, nil
}

// E20 regenerates the resubmission-behaviour analysis: outcome repetition
// across a user's consecutive jobs and resubmission latency after failures.
func E20(env *Env) (*Result, error) {
	r, err := env.Orders().Resubmission()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "E20: resubmission behaviour",
		Columns: []string{"measure", "value"},
	}
	t.AddRow("P(fail | prev fail)", r.PFailAfterFail)
	t.AddRow("P(fail | prev success)", r.PFailAfterSuccess)
	t.AddRow("failure lift", r.Lift)
	t.AddRow("pairs after failure", r.PairsAfterFail)
	t.AddRow("pairs after success", r.PairsAfterSuccess)
	t.AddRow("median gap after failure (h)", r.MedianGapAfterFailH)
	t.AddRow("median gap after success (h)", r.MedianGapAfterSuccessH)
	t.AddRow("resubmits within 1h of failure", r.FastResubmitShare)
	return &Result{
		ID: "E20", Description: "resubmission behaviour", Tables: []*report.Table{t},
		Metrics: map[string]float64{
			"p_fail_after_fail":    r.PFailAfterFail,
			"p_fail_after_success": r.PFailAfterSuccess,
			"lift":                 r.Lift,
			"median_gap_fail_h":    r.MedianGapAfterFailH,
			"median_gap_success_h": r.MedianGapAfterSuccessH,
			"fast_resubmit_share":  r.FastResubmitShare,
		},
	}, nil
}

// E21 regenerates the torus spatial-correlation analysis: incidents close
// in time are close on the 5D torus (cable/link propagation).
func E21(env *Env) (*Result, error) {
	t := &report.Table{
		Title:   "E21: torus distance of incident pairs, close-in-time vs baseline",
		Columns: []string{"window", "close pairs", "mean dist (close)", "mean dist (all)", "nbr share (close)", "nbr share (all)", "correlated"},
	}
	metrics := map[string]float64{}
	for _, window := range []time.Duration{time.Hour, 6 * time.Hour, 24 * time.Hour} {
		res, err := env.SpatialCorr(window)
		if err != nil {
			return nil, err
		}
		t.AddRow(window.String(), res.ClosePairs, res.MeanDistClose, res.MeanDistAll,
			res.NeighborShareClose, res.NeighborShareAll, fmt.Sprintf("%v", res.Correlated))
		key := fmt.Sprintf("%dh", int(window.Hours()))
		metrics["nbr_share_close_"+key] = res.NeighborShareClose
		metrics["nbr_share_all_"+key] = res.NeighborShareAll
		if window == time.Hour {
			metrics["mean_dist_close_1h"] = res.MeanDistClose
			metrics["mean_dist_all"] = res.MeanDistAll
		}
	}
	return &Result{
		ID: "E21", Description: "torus spatial correlation", Tables: []*report.Table{t},
		Metrics: metrics,
	}, nil
}

// E22 regenerates the availability analysis: downtime derived from the
// service-action pairs in the RAS log, machine availability, and the
// repair-time distribution, via the shared environment cache.
func E22(env *Env) (*Result, error) {
	a, err := env.Availability()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "E22: hardware availability from service actions",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("service actions", a.ServiceActions)
	t.AddRow("unmatched begins", a.UnmatchedBegins)
	t.AddRow("down midplane-hours", a.DownMidplaneHours)
	t.AddRow("span (h)", a.SpanHours)
	t.AddRow("availability", a.Availability)
	t.AddRow("mean repair (h)", a.MeanRepairH)
	t.AddRow("median repair (h)", a.MedianRepairH)
	metrics := map[string]float64{
		"availability":    a.Availability,
		"service_actions": float64(a.ServiceActions),
		"median_repair_h": a.MedianRepairH,
	}
	if a.BestFit.Dist != nil {
		t.AddRow("repair best fit", a.BestFit.Family)
		t.AddRow("repair fit KS", a.BestFit.KS)
		metrics["repair_fit_ks"] = a.BestFit.KS
	}
	return &Result{
		ID: "E22", Description: "availability and repair times",
		Tables: []*report.Table{t}, Metrics: metrics,
	}, nil
}

// E23 regenerates the job-survival analysis: the Kaplan–Meier curve of
// time to user failure with completed/system-killed jobs as censored
// observations.
func E23(env *Env) (*Result, error) {
	sv, err := env.Survival()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "E23: Kaplan–Meier survival of jobs vs user failure",
		Columns: []string{"horizon", "S(t)"},
		Notes: []string{
			fmt.Sprintf("%d jobs: %d user-failure events, %d censored; decreasing hazard (infant mortality): %v",
				sv.Jobs, sv.Events, sv.Censored, sv.HazardDecreasing),
			fmt.Sprintf("censored Weibull MLE: shape %.3f scale %.0f (shape < 1 confirms infant mortality parametrically)",
				sv.ParametricWeibull.Shape, sv.ParametricWeibull.Scale),
		},
	}
	horizons := []int{60, 600, 3600, 6 * 3600, 24 * 3600}
	labels := []string{"1m", "10m", "1h", "6h", "24h"}
	var xs, ys []float64
	for i, h := range horizons {
		t.AddRow(labels[i], sv.Horizons[h])
		xs = append(xs, float64(h))
		ys = append(ys, sv.Horizons[h])
	}
	fig := &report.Figure{
		Title:  "E23 (Fig): survival vs user failure",
		XLabel: "seconds", YLabel: "S(t)",
		Series: []report.Series{{Name: "S", X: xs, Y: ys}},
	}
	return &Result{
		ID: "E23", Description: "job survival analysis",
		Tables: []*report.Table{t}, Figures: []*report.Figure{fig},
		Metrics: map[string]float64{
			"s_10m":             sv.Horizons[600],
			"s_1h":              sv.Horizons[3600],
			"s_24h":             sv.Horizons[24*3600],
			"events":            float64(sv.Events),
			"hazard_decreasing": boolMetric(sv.HazardDecreasing),
			"weibull_shape":     sv.ParametricWeibull.Shape,
		},
	}, nil
}
