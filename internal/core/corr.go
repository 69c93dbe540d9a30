package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/stats"
)

// GroupStats aggregates jobs over one grouping key (user or project).
type GroupStats struct {
	Key         string
	Jobs        int
	Failed      int
	SystemFails int
	CoreHours   float64
	FailRate    float64
}

// GroupBy selects the attribute jobs are aggregated over.
type GroupBy int

// Grouping attributes.
const (
	ByUser GroupBy = iota + 1
	ByProject
)

// String implements fmt.Stringer.
func (g GroupBy) String() string {
	if g == ByUser {
		return "user"
	}
	return "project"
}

// sortGroups orders group aggregates by descending job count, key ascending
// — the canonical group order.
func sortGroups(out []GroupStats) {
	slices.SortFunc(out, func(a, b GroupStats) int {
		if a.Jobs != b.Jobs {
			return cmp.Compare(b.Jobs, a.Jobs)
		}
		return strings.Compare(a.Key, b.Key)
	})
}

// sortGroupsByKey orders group aggregates alphabetically by key.
func sortGroupsByKey(out []GroupStats) {
	slices.SortFunc(out, func(a, b GroupStats) int { return strings.Compare(a.Key, b.Key) })
}

// ConcentrationResult quantifies how skewed jobs / failures / core-hours
// are across a grouping — the workload-concentration analysis (E2) and the
// failure-correlation analysis (E7).
type ConcentrationResult struct {
	By             GroupBy
	Groups         int
	GiniJobs       float64
	GiniCoreHours  float64
	GiniFailures   float64
	Top10JobShare  float64 // share of jobs from the 10 busiest groups
	Top10CHShare   float64 // share of core-hours
	Top10FailShare float64 // share of failures from the 10 most-failing groups
	// PearsonJobsFailures correlates per-group job counts with failure
	// counts: high values mean failure volume tracks activity.
	PearsonJobsFailures float64
	// SpearmanJobsFailRate correlates activity with failure *rate*.
	SpearmanJobsFailRate float64
	// CramersV measures the association between group identity and job
	// outcome (success/failure).
	CramersV float64
}

// concentrationFromGroups computes the concentration/correlation profile
// from pre-aggregated groups, all but the categorical association
// (CramersV), which needs the per-job outcomes.
func concentrationFromGroups(by GroupBy, groups []GroupStats) (*ConcentrationResult, error) {
	if len(groups) < 2 {
		return nil, fmt.Errorf("core: need ≥2 groups, have %d", len(groups))
	}
	jobs := make([]float64, len(groups))
	fails := make([]float64, len(groups))
	ch := make([]float64, len(groups))
	rates := make([]float64, len(groups))
	for i, g := range groups {
		jobs[i] = float64(g.Jobs)
		fails[i] = float64(g.Failed)
		ch[i] = g.CoreHours
		rates[i] = g.FailRate
	}
	res := &ConcentrationResult{By: by, Groups: len(groups)}
	var err error
	if res.GiniJobs, err = stats.Gini(jobs); err != nil {
		return nil, err
	}
	if res.GiniCoreHours, err = stats.Gini(ch); err != nil {
		return nil, err
	}
	if res.GiniFailures, err = stats.Gini(fails); err != nil {
		return nil, err
	}
	if res.Top10JobShare, err = stats.TopKShare(jobs, 10); err != nil {
		return nil, err
	}
	if res.Top10CHShare, err = stats.TopKShare(ch, 10); err != nil {
		return nil, err
	}
	if res.Top10FailShare, err = stats.TopKShare(fails, 10); err != nil {
		return nil, err
	}
	if res.PearsonJobsFailures, err = stats.Pearson(jobs, fails); err != nil {
		return nil, err
	}
	if res.SpearmanJobsFailRate, err = stats.Spearman(jobs, rates); err != nil {
		return nil, err
	}
	return res, nil
}

// TopFailing returns the k groups with the most failed jobs.
func TopFailing(groups []GroupStats, k int) []GroupStats {
	sorted := append([]GroupStats(nil), groups...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Failed != sorted[j].Failed {
			return sorted[i].Failed > sorted[j].Failed
		}
		return sorted[i].Key < sorted[j].Key
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}
