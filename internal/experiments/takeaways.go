package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/machine"
)

// Takeaway is one of the paper's numbered findings, re-derived from the
// corpus under analysis.
type Takeaway struct {
	ID   int
	Tag  string // short topic slug
	Text string // the finding with measured values substituted
}

// Takeaways renders the paper's 22 takeaways with the corpus' measured
// values. The wording follows the paper's findings; every number is
// computed, not quoted, and read from the same Env accessors the
// experiments use — the fused profile, the concentration profiles, E6's
// fits, the default-rule MTTI, E13's I/O comparison and the job orders —
// so a takeaway and its experiment always quote one derivation. Run inside
// a Pass after RunAll, it recomputes nothing the suite already derived.
func Takeaways(env *Env) (_ []Takeaway, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("experiments: takeaways: %w", err)
		}
	}()
	p, err := env.fusedProfile()
	if err != nil {
		return nil, err
	}
	sum, cls, joint := p.Summary, p.Exit, p.Joint
	userConc, err := env.Concentration(core.ByUser)
	if err != nil {
		return nil, err
	}
	projConc, err := env.Concentration(core.ByProject)
	if err != nil {
		return nil, err
	}
	fits, err := env.FamilyFits()
	if err != nil {
		return nil, err
	}
	mtti, err := env.MTTI()
	if err != nil {
		return nil, err
	}
	locality, err := p.Locality(machine.LevelMidplane)
	if err != nil {
		return nil, err
	}
	profile, temporal := p.RAS, p.Temporal
	orders := env.Orders()
	scale, err := orders.FailureByStructure(core.DimNodes)
	if err != nil {
		return nil, err
	}
	tasks, err := orders.FailureByStructure(core.DimTasks)
	if err != nil {
		return nil, err
	}
	ioCorr, ioErr := env.IOBehavior()
	interrupts, err := p.Interrupts, p.InterruptsErr
	if err != nil {
		return nil, err
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
		joint.SystemCause, cls.SystemCause, pct(math.Abs(float64(joint.SystemCause-cls.SystemCause))/float64(cls.Failed))))

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
	add("fit-families", fmt.Sprintf(
		"The best-fitting execution-length distribution depends on the exit code: %s.",
		fitSummary(fits)))
	add("infant", fmt.Sprintf(
		"Generic runtime errors (exit 1) fit a Weibull with shape < 1 (infant mortality): crashes cluster shortly after launch (fitted %s).",
		bestFit(fits, joblog.FamilyError)))
	add("heavy-tail", fmt.Sprintf(
		"Segmentation faults show a heavy-tailed (Pareto-like) execution length: some jobs run long before faulting (fitted %s).",
		bestFit(fits, joblog.FamilySegfault)))

	// RAS profile.
	add("ras-mix", fmt.Sprintf(
		"FATAL events are only %s of the RAS stream; WARN/INFO noise dominates, so raw event counts wildly overstate failures.",
		pct(float64(sum.RASFatal)/float64(max(sum.RASTotal, 1)))))
	add("ras-cats", fmt.Sprintf(
		"The dominant FATAL categories are %s — hardware subsystems, not system software, drive most fatal events.",
		topCategories(profile, 3)))
	add("filtering", fmt.Sprintf(
		"Similarity-based filtering collapses %d raw FATAL events into %d incidents (%.1fx reduction): fatal events arrive in highly redundant bursts.",
		mtti.RawFatal, mtti.Interruptions, safeDiv(float64(mtti.RawFatal), float64(mtti.Interruptions))))
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
		peak, safeDiv(float64(temporal.JobsByHour[peak]), float64(max(temporal.JobsByHour[trough], 1))), trough))
	if ioErr == nil {
		add("io", fmt.Sprintf(
			"Failed jobs move far less data than succeeded ones (median ratio %.1fx, two-sample KS %.2f): failures usually strike before the bulk of I/O happens.",
			ioCorr.MedianRatio, ioCorr.KSBytes))
	} else {
		add("io", "No I/O records available for both outcomes on this corpus.")
	}

	return ts, nil
}

func medianOf(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)/2]
}

func lastNonEmpty(bs []core.Bucket) core.Bucket {
	for i := len(bs) - 1; i >= 0; i-- {
		if bs[i].Jobs > 0 {
			return bs[i]
		}
	}
	return core.Bucket{}
}

func fitSummary(fits []core.FamilyFit) string {
	parts := make([]string, 0, len(fits))
	for _, f := range fits {
		parts = append(parts, fmt.Sprintf("%s→%s", f.Family, f.Best().Family))
	}
	return strings.Join(parts, ", ")
}

// bestFit names the winning family of fam's fit, "n/a" if fam was not fitted.
func bestFit(fits []core.FamilyFit, fam joblog.ExitFamily) string {
	for _, f := range fits {
		if f.Family == fam {
			return f.Best().Family
		}
	}
	return "n/a"
}

func topCategories(p *core.CategoryProfile, k int) string {
	cats := rankCounts(p.FatalByCategory)
	parts := make([]string, 0, k)
	for _, c := range cats[:min(k, len(cats))] {
		parts = append(parts, string(c))
	}
	return strings.Join(parts, ", ")
}
