// Failure triage: the report an HPC facility operator would run weekly —
// who is failing, how much compute is burned by failures, and which exit
// families dominate per user.
//
//	go run ./examples/failure_triage
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "failure_triage:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
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
	p, err := d.FusedScan(0)
	if err != nil {
		return err
	}

	// Triage table: the ten most-failing users with their wasted core-hours
	// and dominant exit family.
	users := p.Groups(core.ByUser)
	t := &report.Table{
		Title:   "failure triage: top-10 failing users (60 days)",
		Columns: []string{"user", "jobs", "failed", "fail rate", "wasted core-h", "dominant failure"},
	}
	for _, g := range core.TopFailing(users, 10) {
		wasted, dominant := userFailureProfile(d, g.Key)
		t.AddRow(g.Key, g.Jobs, g.Failed, g.FailRate, wasted, dominant)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	// Association strength: is failing behaviour a property of the user?
	conc, err := p.Concentration(core.ByUser)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nCramér's V(user, outcome) = %.3f — failure behaviour is user-specific\n", conc.CramersV)
	fmt.Fprintf(w, "top-10 users own %.1f%% of all failures\n", 100*conc.Top10FailShare)
	return nil
}

// userFailureProfile returns the core-hours consumed by the user's failed
// jobs and the user's most common failure family.
func userFailureProfile(d *core.Dataset, user string) (float64, string) {
	var wasted float64
	fams := map[joblog.ExitFamily]int{}
	jv := d.JobView()
	for i := 0; i < jv.N; i++ {
		if jv.Users[jv.UserID[i]] != user || jv.Exit[i] == joblog.ExitSuccess {
			continue
		}
		wasted += jv.CoreHours(i)
		fams[joblog.FamilyOfCode(jv.Family[i])]++
	}
	best, bestN := "", 0
	for f, n := range fams {
		if n > bestN || (n == bestN && string(f) < best) {
			best, bestN = string(f), n
		}
	}
	return wasted, best
}
