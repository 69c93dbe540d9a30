package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
)

// Takeaway is one of the paper's numbered findings, re-derived from the
// corpus under analysis.
type Takeaway struct {
	ID   int
	Tag  string // short topic slug
	Text string // the finding with measured values substituted
}

// Takeaways runs the full joint analysis and renders the paper's 22
// takeaways with the corpus' measured values. The wording follows the
// paper's findings; every number is computed, not quoted. The whole-corpus
// aggregates come from the Dataset's memoized fused profile, scanned on at
// most workers goroutines (≤ 0 means GOMAXPROCS).
func (d *Dataset) Takeaways(workers int) ([]Takeaway, error) {
	p, err := d.FusedScan(workers)
	if err != nil {
		return nil, fmt.Errorf("core: takeaways: %w", err)
	}
	sum, cls, joint := p.Summary, p.Exit, p.Joint
	userConc, err := p.Concentration(ByUser)
	if err != nil {
		return nil, fmt.Errorf("core: takeaways: %w", err)
	}
	projConc, err := p.Concentration(ByProject)
	if err != nil {
		return nil, fmt.Errorf("core: takeaways: %w", err)
	}
	fits, err := d.FitExecutionLengths(FitOptions{MaxSamples: 20000})
	if err != nil {
		return nil, fmt.Errorf("core: takeaways: %w", err)
	}
	mtti, err := d.MTTI(DefaultFilterRule())
	if err != nil {
		return nil, fmt.Errorf("core: takeaways: %w", err)
	}
	locality, err := p.Locality(machine.LevelMidplane)
	if err != nil {
		return nil, fmt.Errorf("core: takeaways: %w", err)
	}
	profile, temporal := p.RAS, p.Temporal
	orders := NewJobOrders(d)
	scale, err := orders.FailureByStructure(DimNodes)
	if err != nil {
		return nil, fmt.Errorf("core: takeaways: %w", err)
	}
	tasks, err := orders.FailureByStructure(DimTasks)
	if err != nil {
		return nil, fmt.Errorf("core: takeaways: %w", err)
	}
	ioCorr, ioErr := d.IOBehavior()
	interrupts, err := p.Interrupts, p.InterruptsErr
	if err != nil {
		return nil, fmt.Errorf("core: takeaways: %w", err)
	}
	succ, fail := orders.ExecutionLengthCDFs()

	pct := func(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
	var ts []Takeaway
	add := func(tag, text string) {
		ts = append(ts, Takeaway{ID: len(ts) + 1, Tag: tag, Text: text})
	}

	// Dataset scale.
	add("scale", fmt.Sprintf(
		"The observation covers %.0f days, %d jobs from %d users / %d projects, %.2f billion core-hours, and %d RAS events (%d FATAL).",
		sum.Days, sum.Jobs, sum.Users, sum.Projects, sum.CoreHours/1e9, sum.RASTotal, sum.RASFatal))
	// Headline failure counts.
	add("failures", fmt.Sprintf(
		"%d job failures appear in the scheduling log — %s of all jobs.",
		cls.Failed, pct(float64(cls.Failed)/float64(cls.Total))))
	add("user-share", fmt.Sprintf(
		"A large majority of job failures (%s) are caused by user behavior (bugs, misconfiguration, misoperation); only %d failures trace back to system events.",
		pct(cls.UserShare()), cls.SystemCause))
	add("joint-agree", fmt.Sprintf(
		"Joining the scheduler log with the RAS log attributes %d failures to the system versus %d from exit statuses alone — the two views agree within %s of failures.",
		joint.SystemCause, cls.SystemCause, pct(absFloat(float64(joint.SystemCause-cls.SystemCause))/float64(cls.Failed))))

	// Workload concentration.
	add("user-skew", fmt.Sprintf(
		"Workload is highly concentrated: the 10 busiest users submit %s of all jobs (Gini %.2f), and the 10 biggest consume %s of core-hours.",
		pct(userConc.Top10JobShare), userConc.GiniJobs, pct(userConc.Top10CHShare)))
	add("fail-skew", fmt.Sprintf(
		"Failures concentrate even more than activity: the 10 most-failing users account for %s of all failed jobs (failure Gini %.2f).",
		pct(userConc.Top10FailShare), userConc.GiniFailures))
	add("user-corr", fmt.Sprintf(
		"Per-user job counts and failure counts correlate strongly (Pearson r = %.2f); identity↔outcome association is Cramér's V = %.2f for users and %.2f for projects.",
		userConc.PearsonJobsFailures, userConc.CramersV, projConc.CramersV))

	// Execution structure.
	add("scale-trend", fmt.Sprintf(
		"Failure rate varies with job scale: %d-node jobs fail at %s versus %s for %d-node jobs (Spearman trend %.2f).",
		int(scale.Buckets[0].Lo), pct(scale.Buckets[0].FailRate),
		pct(lastNonEmpty(scale.Buckets).FailRate), int(lastNonEmpty(scale.Buckets).Lo), scale.SpearmanTrend))
	add("task-trend", fmt.Sprintf(
		"Jobs with more execution tasks fail more often (Spearman trend %.2f across task-count buckets).",
		tasks.SpearmanTrend))
	add("exec-length", fmt.Sprintf(
		"Failed jobs die early: their median execution length is %.0f s versus %.0f s for succeeded jobs.",
		medianOf(fail), medianOf(succ)))

	// Distribution fitting.
	bestByFam := map[joblog.ExitFamily]string{}
	for _, f := range fits {
		bestByFam[f.Family] = f.Best().Family
	}
	add("fit-families", fmt.Sprintf(
		"The best-fitting execution-length distribution depends on the exit code: %s.",
		fitSummary(fits)))
	add("infant", fmt.Sprintf(
		"Generic runtime errors (exit 1) fit a Weibull with shape < 1 (infant mortality): crashes cluster shortly after launch (fitted %s).",
		bestOrNA(bestByFam, joblog.FamilyError)))
	add("heavy-tail", fmt.Sprintf(
		"Segmentation faults show a heavy-tailed (Pareto-like) execution length: some jobs run long before faulting (fitted %s).",
		bestOrNA(bestByFam, joblog.FamilySegfault)))

	// RAS profile.
	add("ras-mix", fmt.Sprintf(
		"FATAL events are only %s of the RAS stream; WARN/INFO noise dominates, so raw event counts wildly overstate failures.",
		pct(float64(sum.RASFatal)/float64(maxInt(sum.RASTotal, 1)))))
	add("ras-cats", fmt.Sprintf(
		"The dominant FATAL categories are %s — hardware subsystems, not system software, drive most fatal events.",
		topCategories(profile, 3)))
	add("filtering", fmt.Sprintf(
		"Similarity-based filtering collapses %d raw FATAL events into %d incidents (%.1fx reduction): fatal events arrive in highly redundant bursts.",
		mtti.RawFatal, mtti.Interruptions, safeRatio(float64(mtti.RawFatal), float64(mtti.Interruptions))))
	add("mtti", fmt.Sprintf(
		"After filtering, the mean time to job interruption is %.1f days — versus a misleading raw-FATAL MTBF of %.2f days.",
		mtti.MTTIDays, mtti.MTBFRawDays))
	if mtti.BestFit.Dist != nil {
		add("interval-fit", fmt.Sprintf(
			"Interruption intervals are best fitted by the %s distribution (KS %.3f).",
			mtti.BestFit.Family, mtti.BestFit.KS))
	} else {
		add("interval-fit", "Too few interruptions to fit an interval distribution on this corpus.")
	}

	// Locality.
	add("locality", fmt.Sprintf(
		"FATAL events exhibit strong spatial locality: the 5 worst midplanes absorb %s of events (uniform would be %s; Gini %.2f).",
		pct(locality.Top5Share), pct(locality.UniformTopShare), locality.Gini))
	add("interrupt-corr", fmt.Sprintf(
		"System interruptions track consumption: per-user core-hours correlate with interrupt counts at r = %.2f, and the top core-hour decile of users absorbs %s of interrupts.",
		interrupts.PearsonCHInterrupts, pct(interrupts.TopDecileShare)))

	// Temporal + I/O.
	peak, trough := peakTrough(temporal.JobsByHour)
	add("diurnal", fmt.Sprintf(
		"Submissions follow a diurnal/weekly rhythm (peak hour %02d:00 has %.1fx the jobs of %02d:00), while the failure *rate* stays roughly flat across hours.",
		peak, safeRatio(float64(temporal.JobsByHour[peak]), float64(maxInt(temporal.JobsByHour[trough], 1))), trough))
	if ioErr == nil {
		add("io", fmt.Sprintf(
			"Failed jobs move far less data than succeeded ones (median ratio %.1fx, two-sample KS %.2f): failures usually strike before the bulk of I/O happens.",
			ioCorr.MedianRatio, ioCorr.KSBytes))
	} else {
		add("io", "No I/O records available for both outcomes on this corpus.")
	}

	return ts, nil
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianOf(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)/2]
}

func lastNonEmpty(bs []Bucket) Bucket {
	for i := len(bs) - 1; i >= 0; i-- {
		if bs[i].Jobs > 0 {
			return bs[i]
		}
	}
	return Bucket{}
}

func fitSummary(fits []FamilyFit) string {
	parts := make([]string, 0, len(fits))
	for _, f := range fits {
		parts = append(parts, fmt.Sprintf("%s→%s", f.Family, f.Best().Family))
	}
	return strings.Join(parts, ", ")
}

func bestOrNA(m map[joblog.ExitFamily]string, fam joblog.ExitFamily) string {
	if v, ok := m[fam]; ok {
		return v
	}
	return "n/a"
}

func topCategories(p *CategoryProfile, k int) string {
	type kv struct {
		cat raslog.Category
		n   int
	}
	var list []kv
	for c, n := range p.FatalByCategory {
		list = append(list, kv{c, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].cat < list[j].cat
	})
	if k > len(list) {
		k = len(list)
	}
	parts := make([]string, 0, k)
	for _, e := range list[:k] {
		parts = append(parts, string(e.cat))
	}
	return strings.Join(parts, ", ")
}

func peakTrough(hours [24]int) (peak, trough int) {
	for h := 1; h < 24; h++ {
		if hours[h] > hours[peak] {
			peak = h
		}
		if hours[h] < hours[trough] {
			trough = h
		}
	}
	return peak, trough
}
