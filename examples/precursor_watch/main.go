// Precursor watch: the operator-facing view of the WARN→FATAL lead-time
// analysis — how often warning bursts precede fatal incidents, what lead
// time a monitoring system would get, and why raw WARN alarms are too
// noisy to page on.
//
//	go run ./examples/precursor_watch
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "precursor_watch:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := sim.SmallConfig()
	cfg.Days = 180 // enough incidents for stable coverage numbers
	corpus, err := sim.Generate(cfg)
	if err != nil {
		return err
	}
	d, err := core.NewDataset(corpus.Jobs, corpus.Tasks, corpus.Events, corpus.IO)
	if err != nil {
		return err
	}

	t := &report.Table{
		Title:   "precursor watch: WARN bursts before FATAL incidents (180 days)",
		Columns: []string{"lookback", "coverage", "median lead", "alarms", "precision"},
	}
	fatals, err := d.FilterFatal(core.DefaultFilterRule())
	if err != nil {
		return err
	}
	warns, err := d.FilterWarn(core.DefaultFilterRule())
	if err != nil {
		return err
	}
	lookbacks := []time.Duration{time.Hour, 3 * time.Hour, 6 * time.Hour, 12 * time.Hour}
	opts := make([]core.LeadTimeOptions, len(lookbacks))
	for i, lookback := range lookbacks {
		opts[i] = core.DefaultLeadTimeOptions()
		opts[i].Lookback = lookback
	}
	results, err := d.LeadTimeSweep(fatals, warns, opts)
	if err != nil {
		return err
	}
	for i, res := range results {
		t.AddRow(lookbacks[i].String(),
			fmt.Sprintf("%.0f%%", 100*res.Coverage),
			fmt.Sprintf("%.1fh", res.MedianLeadH),
			res.WarnBursts,
			fmt.Sprintf("%.2f%%", 100*res.Precision))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println(`
Reading: most fatal incidents announce themselves with warnings hours in
advance (useful for checkpoint scheduling), but paging on every WARN burst
would drown operators — the precision column is why failure prediction
needs message-level models, not raw severity alarms.`)
	return nil
}
