package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/report"
	"repro/internal/stats"
)

// E7 regenerates the failure↔user/project correlation analysis: top
// failing users, identity↔outcome association, jobs↔failures correlation.
func E7(env *Env) (*Result, error) {
	p, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E7", Description: "failure correlation with users/projects", Metrics: map[string]float64{}}
	for _, by := range []core.GroupBy{core.ByUser, core.ByProject} {
		conc, err := env.Concentration(by)
		if err != nil {
			return nil, err
		}
		res.Metrics["cramers_v_"+by.String()] = conc.CramersV
		res.Metrics["pearson_jobs_failures_"+by.String()] = conc.PearsonJobsFailures
		res.Metrics["top10_fail_share_"+by.String()] = conc.Top10FailShare

		groups := p.Groups(by)
		t := &report.Table{
			Title:   fmt.Sprintf("E7: top-10 failing %ss", by),
			Columns: []string{by.String(), "jobs", "failed", "fail rate", "system fails"},
		}
		for _, g := range core.TopFailing(groups, 10) {
			t.AddRow(g.Key, g.Jobs, g.Failed, g.FailRate, g.SystemFails)
		}
		t.Notes = []string{fmt.Sprintf("Cramér's V(%s,outcome) = %.3f; Pearson(jobs,failures) = %.3f",
			by, conc.CramersV, conc.PearsonJobsFailures)}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}

// E8 regenerates the failure-rate-vs-structure analysis over scale, task
// count and core-hours.
func E8(env *Env) (*Result, error) {
	res := &Result{ID: "E8", Description: "failure rate vs job structure", Metrics: map[string]float64{}}
	orders := env.Orders()
	for _, dim := range []core.StructureDim{core.DimNodes, core.DimTasks, core.DimCoreHours} {
		sr, err := orders.FailureByStructure(dim)
		if err != nil {
			return nil, err
		}
		t := &report.Table{
			Title:   fmt.Sprintf("E8: failure rate by %s", dim),
			Columns: []string{"bucket lo", "bucket hi", "jobs", "failed", "fail rate"},
			Notes:   []string{fmt.Sprintf("Spearman trend = %.3f", sr.SpearmanTrend)},
		}
		var xs, ys []float64
		for _, b := range sr.Buckets {
			if b.Jobs == 0 {
				continue
			}
			t.AddRow(b.Lo, b.Hi, b.Jobs, b.Failed, b.FailRate)
			xs = append(xs, b.Lo)
			ys = append(ys, b.FailRate)
		}
		res.Tables = append(res.Tables, t)
		res.Figures = append(res.Figures, &report.Figure{
			Title:  fmt.Sprintf("E8 (Fig): failure rate vs %s", dim),
			XLabel: dim.String(), YLabel: "failure rate",
			Series: []report.Series{{Name: dim.String(), X: xs, Y: ys}},
		})
		res.Metrics["trend_"+dim.String()] = sr.SpearmanTrend
	}
	return res, nil
}

// E9 regenerates the RAS composition tables: events by severity, category
// and component.
func E9(env *Env) (*Result, error) {
	fp, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	p := fp.RAS
	sev := &report.Table{Title: "E9: RAS events by severity", Columns: []string{"severity", "events", "share"}}
	for _, s := range []raslog.Severity{raslog.Fatal, raslog.Warn, raslog.Info} {
		sev.AddRow(s.String(), p.BySeverity[s], float64(p.BySeverity[s])/float64(p.Total))
	}
	cat := &report.Table{Title: "E9: FATAL events by category", Columns: []string{"category", "events"}}
	for _, c := range rankCounts(p.FatalByCategory) {
		cat.AddRow(string(c), p.FatalByCategory[c])
	}
	comp := &report.Table{Title: "E9: events by component", Columns: []string{"component", "events"}}
	for _, c := range rankCounts(p.ByComponent) {
		comp.AddRow(string(c), p.ByComponent[c])
	}
	return &Result{
		ID: "E9", Description: "RAS composition",
		Tables: []*report.Table{sev, cat, comp},
		Metrics: map[string]float64{
			"fatal_share": float64(p.BySeverity[raslog.Fatal]) / float64(p.Total),
			"total":       float64(p.Total),
		},
	}, nil
}

// E10 regenerates the spatial-locality analysis of FATAL events.
func E10(env *Env) (*Result, error) {
	p, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E10", Description: "spatial locality", Metrics: map[string]float64{}}
	for _, level := range []machine.Level{machine.LevelMidplane, machine.LevelRack} {
		loc, err := p.Locality(level)
		if err != nil {
			return nil, err
		}
		t := &report.Table{
			Title:   fmt.Sprintf("E10: worst %ss by FATAL events", level),
			Columns: []string{level.String(), "events"},
			Notes: []string{fmt.Sprintf("gini %.3f, top-5 share %.3f (uniform %.3f), localized=%v",
				loc.Gini, loc.Top5Share, loc.UniformTopShare, loc.Localized)},
		}
		for i, c := range loc.Counts {
			if i >= 10 {
				break
			}
			t.AddRow(c.Loc.String(), c.Count)
		}
		res.Tables = append(res.Tables, t)
		res.Metrics["gini_"+level.String()] = loc.Gini
		res.Metrics["top5_share_"+level.String()] = loc.Top5Share
		res.Metrics["uniform_share_"+level.String()] = loc.UniformTopShare
	}
	return res, nil
}

// filterWindows is the sweep grid for E11.
func filterWindows() []time.Duration {
	return []time.Duration{
		30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute,
		10 * time.Minute, 20 * time.Minute, 40 * time.Minute, time.Hour,
		2 * time.Hour, 6 * time.Hour,
	}
}

// E11 regenerates the filtering-sensitivity figure: filtered incident
// count vs window, for three similarity rules (the ablation the design
// calls out: temporal-only vs +spatial vs +message).
func E11(env *Env) (*Result, error) {
	rules := []struct {
		name string
		rule core.FilterRule
	}{
		{"temporal", core.FilterRule{Window: time.Minute, Spatial: machine.LevelSystem, SameMessage: false}},
		{"temporal+spatial", core.FilterRule{Window: time.Minute, Spatial: machine.LevelMidplane, SameMessage: false}},
		{"temporal+spatial+msg", core.FilterRule{Window: time.Minute, Spatial: machine.LevelMidplane, SameMessage: true}},
	}
	fig := &report.Figure{
		Title:  "E11 (Fig): filtered FATAL incidents vs window",
		XLabel: "window (minutes)", YLabel: "incidents",
	}
	t := &report.Table{
		Title:   "E11: filtering sweep",
		Columns: []string{"rule", "window", "incidents", "reduction"},
	}
	metrics := map[string]float64{}
	for _, r := range rules {
		sweep, err := env.D.FilterSweep(r.rule, filterWindows(), env.Parallelism)
		if err != nil {
			return nil, err
		}
		var xs, ys []float64
		for _, p := range sweep {
			xs = append(xs, p.Window.Minutes())
			ys = append(ys, float64(p.Incidents))
			t.AddRow(r.name, p.Window.String(), p.Incidents, p.Reduction)
		}
		fig.Series = append(fig.Series, report.Series{Name: r.name, X: xs, Y: ys})
		if knee, ok := core.KneeWindow(sweep, 0.05); ok {
			metrics["knee_minutes_"+r.name] = knee.Minutes()
		}
		metrics["incidents_20m_"+r.name] = incidentsAt(sweep, 20*time.Minute)
	}
	return &Result{
		ID: "E11", Description: "filtering sweep",
		Tables: []*report.Table{t}, Figures: []*report.Figure{fig},
		Metrics: metrics,
	}, nil
}

// E12 regenerates the MTTI analysis: filtered job-interrupting incidents,
// MTTI in days, and the best-fit law of interruption intervals. The
// default-rule analysis comes from the shared environment cache, and the
// interval CDF figure reuses the sorted interval Sample the best-fit
// selection already built.
func E12(env *Env) (*Result, error) {
	res, err := env.MTTI()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "E12 (Table): mean time to interruption",
		Columns: []string{"quantity", "value"},
		Notes:   []string{"paper anchor: MTTI ≈ 3.5 days"},
	}
	t.AddRow("span (days)", res.SpanDays)
	t.AddRow("raw FATAL events", res.RawFatal)
	t.AddRow("filtered interruptions", res.Interruptions)
	t.AddRow("MTTI (days)", res.MTTIDays)
	t.AddRow("raw MTBF (days)", res.MTBFRawDays)
	t.AddRow("interrupted jobs", len(res.InterruptedJobs()))
	t.AddRow("lost core-hours (M)", env.D.LostCoreHours(res)/1e6)
	metrics := map[string]float64{
		"mtti_days":     res.MTTIDays,
		"interruptions": float64(res.Interruptions),
		"raw_fatal":     float64(res.RawFatal),
		"mtbf_raw_days": res.MTBFRawDays,
	}
	if res.BestFit.Dist != nil {
		t.AddRow("interval best fit", res.BestFit.Family)
		t.AddRow("interval fit KS", res.BestFit.KS)
		metrics["interval_fit_ks"] = res.BestFit.KS
	}
	out := &Result{ID: "E12", Description: "MTTI", Tables: []*report.Table{t}, Metrics: metrics}
	if res.IntervalSample != nil && res.IntervalSample.N() > 1 {
		// Interval CDF figure, downsampled to 21 quantiles for rendering; the
		// ECDF adopts the Sample's already-sorted view without another sort.
		ecdf, err := stats.NewECDFSorted(res.IntervalSample.Sorted())
		if err != nil {
			return nil, err
		}
		xs, ys := ecdf.Series(21)
		out.Figures = append(out.Figures, &report.Figure{
			Title:  "E12 (Fig): CDF of interruption intervals",
			XLabel: "hours", YLabel: "P(X<=x)",
			Series: []report.Series{{Name: "intervals", X: xs, Y: ys}},
		})
	}
	return out, nil
}

// E13 regenerates the I/O-vs-outcome comparison.
func E13(env *Env) (*Result, error) {
	io, err := env.IOBehavior()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "E13: I/O behavior by outcome",
		Columns: []string{"outcome", "jobs", "median bytes", "p95 bytes", "median io-s"},
	}
	t.AddRow("succeeded", io.SuccessBytes.N, io.SuccessBytes.Median, io.SuccessBytes.P95, io.SuccessIOSecs.Median)
	t.AddRow("failed", io.FailedBytes.N, io.FailedBytes.Median, io.FailedBytes.P95, io.FailedIOSecs.Median)
	t.Notes = []string{fmt.Sprintf("median ratio %.2f, KS %.3f, Spearman(bytes,success) %.3f",
		io.MedianRatio, io.KSBytes, io.SpearmanBytesOutcome)}
	return &Result{
		ID: "E13", Description: "I/O vs outcome", Tables: []*report.Table{t},
		Metrics: map[string]float64{
			"median_ratio":     io.MedianRatio,
			"ks_bytes":         io.KSBytes,
			"spearman_success": io.SpearmanBytesOutcome,
		},
	}, nil
}

// E14 regenerates the temporal-pattern figures: jobs and failures by hour
// of day and the monthly trend.
func E14(env *Env) (*Result, error) {
	fp, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	p := fp.Temporal
	var hx, hj, hf, hr []float64
	rates := p.FailRateByHour()
	for h := 0; h < 24; h++ {
		hx = append(hx, float64(h))
		hj = append(hj, float64(p.JobsByHour[h]))
		hf = append(hf, float64(p.FailsByHour[h]))
		hr = append(hr, rates[h])
	}
	hourFig := &report.Figure{
		Title:  "E14 (Fig): jobs and failures by hour of day",
		XLabel: "hour", YLabel: "count",
		Series: []report.Series{
			{Name: "jobs", X: hx, Y: hj},
			{Name: "failures", X: hx, Y: hf},
		},
	}
	var mx, mj, mfatal []float64
	for i := range p.Months {
		mx = append(mx, float64(i))
		mj = append(mj, float64(p.JobsByMonth[i]))
		mfatal = append(mfatal, float64(p.FatalByMonth[i]))
	}
	monthFig := &report.Figure{
		Title:  "E14 (Fig): monthly jobs and FATAL events",
		XLabel: "month index", YLabel: "count",
		Series: []report.Series{
			{Name: "jobs", X: mx, Y: mj},
			{Name: "fatal events", X: mx, Y: mfatal},
		},
	}
	peakJobs, troughJobs := peakTrough(p.JobsByHour)
	rateSpread := 0.0
	minRate, maxRate := 1.0, 0.0
	for _, r := range rates {
		if r < minRate {
			minRate = r
		}
		if r > maxRate {
			maxRate = r
		}
	}
	rateSpread = maxRate - minRate
	metrics := map[string]float64{
		"peak_hour":        float64(peakJobs),
		"trough_hour":      float64(troughJobs),
		"diurnal_ratio":    safeDiv(float64(p.JobsByHour[peakJobs]), float64(p.JobsByHour[troughJobs])),
		"fail_rate_spread": rateSpread,
		"months":           float64(len(p.Months)),
	}
	// Weekly rhythm: daily submissions autocorrelate at lag 7.
	if len(p.JobsByDay) > 21 {
		daily := make([]float64, len(p.JobsByDay))
		for i, v := range p.JobsByDay {
			daily[i] = float64(v)
		}
		if ac, err := stats.Autocorrelation(daily, 7); err == nil {
			metrics["weekly_acf"] = ac
		}
		if ac1, err := stats.Autocorrelation(daily, 1); err == nil {
			metrics["daily_acf"] = ac1
		}
	}
	return &Result{
		ID: "E14", Description: "temporal patterns",
		Figures: []*report.Figure{hourFig, monthFig},
		Metrics: metrics,
	}, nil
}

// E15 regenerates the interruption↔consumption correlation: per-user
// core-hours vs system interrupts.
func E15(env *Env) (*Result, error) {
	p, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	res, err := p.Interrupts, p.InterruptsErr
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "E15: system interruptions vs user consumption",
		Columns: []string{"measure", "value"},
	}
	t.AddRow("users", res.Users)
	t.AddRow("users with ≥1 interrupt", res.Interrupted)
	t.AddRow("pearson(core-hours, interrupts)", res.PearsonCHInterrupts)
	t.AddRow("pearson(jobs, interrupts)", res.PearsonJobsInterrupts)
	t.AddRow("top-decile interrupt share", res.TopDecileShare)
	return &Result{
		ID: "E15", Description: "interrupts vs consumption", Tables: []*report.Table{t},
		Metrics: map[string]float64{
			"pearson_ch_interrupts":   res.PearsonCHInterrupts,
			"pearson_jobs_interrupts": res.PearsonJobsInterrupts,
			"top_decile_share":        res.TopDecileShare,
		},
	}, nil
}
