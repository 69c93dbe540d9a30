package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/report"
)

// RenderCohort writes the human-readable cohort report: the Table-I
// summary restricted to the cohort, its exit-family breakdown, and the
// heaviest users inside it. It is the single rendering path shared by
// `mirareport -where` and the mirad /v1/cohort endpoint, so the two
// surfaces are bit-identical by construction for the same predicate
// string.
func RenderCohort(w io.Writer, p *core.Cohort, where string) error {
	s := p.Summary
	st := &report.Table{Title: "cohort summary: " + where, Columns: []string{"metric", "value"}}
	st.AddRow("days", fmt.Sprintf("%.1f", s.Days))
	st.AddRow("jobs", s.Jobs)
	st.AddRow("tasks", s.Tasks)
	st.AddRow("users", s.Users)
	st.AddRow("projects", s.Projects)
	st.AddRow("core-hours", fmt.Sprintf("%.0f", s.CoreHours))
	st.AddRow("failed jobs", s.FailedJobs)
	st.AddRow("success jobs", s.SuccessJobs)
	st.AddRow("RAS events", s.RASTotal)
	st.AddRow("RAS fatal", s.RASFatal)
	st.AddRow("RAS warn", s.RASWarn)
	st.AddRow("I/O records", s.IORecords)
	if err := st.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	ft := &report.Table{Title: "cohort exit families", Columns: []string{"family", "failed jobs"}}
	for c := 1; c < joblog.NumFamilies; c++ {
		if n := p.Exit.ByFamily[c]; n > 0 {
			ft.AddRow(string(joblog.FamilyOfCode(uint8(c))), n)
		}
	}
	if err := ft.Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	ut := &report.Table{Title: "cohort top users", Columns: []string{"user", "jobs", "failed", "core-hours"}}
	for i, g := range p.UserGroups {
		if i >= 10 {
			break
		}
		ut.AddRow(g.Key, g.Jobs, g.Failed, fmt.Sprintf("%.0f", g.CoreHours))
	}
	return ut.Render(w)
}
