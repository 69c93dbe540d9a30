// Cohort queries: the interactive questions an operator asks after the
// weekly triage — "show me just this user", "large jobs that failed",
// "what happened in that rack last month" — answered by compiling -where
// predicates to bitmap selections and pushing them into the fused scan
// engine (DESIGN.md §14), so no filtered copy of the corpus is ever built.
//
//	go run ./examples/cohortquery
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/sel"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cohortquery:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := sim.SmallConfig()
	cfg.Days = 60
	corpus, err := sim.Generate(cfg)
	if err != nil {
		return err
	}
	d, err := core.NewDataset(corpus.Jobs, corpus.Tasks, corpus.Events, corpus.IO)
	if err != nil {
		return err
	}

	// Pick the corpus' heaviest user so the walkthrough always has data.
	whole, err := d.FusedScan(0)
	if err != nil {
		return err
	}
	heaviest := whole.UserGroups[0].Key
	start, _ := d.Span()
	month := start.AddDate(0, 1, 0).Format("2006-01-02")

	queries := []string{
		// One user's whole history.
		fmt.Sprintf("user == %s", heaviest),
		// Large failed jobs, any user: dictionary + numeric columns compose.
		"exit != success and nodes >= 2048",
		// A calendar window over jobs AND events: top-level conjuncts split
		// into a job-side and an event-side selection automatically.
		fmt.Sprintf("submit < %s and time < %s and sev == FATAL", month, month),
	}
	for _, q := range queries {
		expr, err := sel.Parse(q)
		if err != nil {
			return err
		}
		p, err := d.FusedScanWhere(expr, 0)
		if err != nil {
			return err
		}
		s := p.Summary
		fmt.Printf("where %s\n", expr) // canonical form, also the cache key
		fmt.Printf("  %d jobs (%d failed) · %.0f core-h · %d users · %d FATAL events over %.1f days\n",
			s.Jobs, s.FailedJobs, s.CoreHours, s.Users, s.RASFatal, s.Days)
	}
	return nil
}
