// MTTI pipeline: shows why raw FATAL counts mislead and how
// similarity-based filtering recovers the true interruption rate —
// sweeping the filtering window and comparing similarity rules.
//
//	go run ./examples/mtti
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mtti:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := sim.SmallConfig()
	cfg.Days = 120 // enough interruptions for stable statistics
	corpus, err := sim.Generate(cfg)
	if err != nil {
		return err
	}
	d, err := core.NewDataset(corpus.Jobs, corpus.Tasks, corpus.Events, corpus.IO)
	if err != nil {
		return err
	}

	// The naive view: every FATAL event is "a failure".
	res, err := d.MTTI(core.DefaultFilterRule())
	if err != nil {
		return err
	}
	fmt.Printf("raw FATAL events: %d  -> naive MTBF %.3f days\n", res.RawFatal, res.MTBFRawDays)
	fmt.Printf("filtered interruptions: %d -> MTTI %.2f days\n", res.Interruptions, res.MTTIDays)
	fmt.Printf("generator injected %d job-killing incidents (truth)\n\n", corpus.Truth.KillingIncidents)

	// Window sweep under three similarity rules.
	windows := []time.Duration{
		30 * time.Second, 2 * time.Minute, 5 * time.Minute,
		20 * time.Minute, time.Hour, 6 * time.Hour,
	}
	rules := []struct {
		name string
		rule core.FilterRule
	}{
		{"temporal only", core.FilterRule{Window: time.Minute, Spatial: machine.LevelSystem}},
		{"+ spatial (midplane)", core.FilterRule{Window: time.Minute, Spatial: machine.LevelMidplane}},
		{"+ message id", core.FilterRule{Window: time.Minute, Spatial: machine.LevelMidplane, SameMessage: true}},
	}
	fmt.Printf("%-22s", "window")
	for _, r := range rules {
		fmt.Printf("%22s", r.name)
	}
	fmt.Println()
	for _, w := range windows {
		fmt.Printf("%-22s", w)
		for _, r := range rules {
			sweep, err := d.FilterSweep(r.rule, []time.Duration{w}, 0)
			if err != nil {
				return err
			}
			fmt.Printf("%22d", sweep[0].Incidents)
		}
		fmt.Println()
	}

	// Where does the curve flatten? That window is the filtering choice.
	sweep, err := d.FilterSweep(core.DefaultFilterRule(), windows, 0)
	if err != nil {
		return err
	}
	if knee, ok := core.KneeWindow(sweep, 0.05); ok {
		fmt.Printf("\nknee of the default-rule curve: %v\n", knee)
	}
	if res.BestFit.Dist != nil {
		fmt.Printf("interruption intervals best fit: %s (KS %.3f)\n",
			res.BestFit.Family, res.BestFit.KS)
	}
	return nil
}
