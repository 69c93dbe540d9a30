// Quickstart: generate a small synthetic Mira corpus, run the headline
// failure classification, and print the numbers the paper leads with.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// 1. Generate a 30-day corpus (use sim.DefaultConfig() for the full
	//    2001-day study; it takes ~30s).
	cfg := sim.SmallConfig()
	corpus, err := sim.Generate(cfg)
	if err != nil {
		return err
	}

	// 2. Index the four logs into a dataset.
	d, err := core.NewDataset(corpus.Jobs, corpus.Tasks, corpus.Events, corpus.IO)
	if err != nil {
		return err
	}

	// 3. Headline numbers: dataset summary + failure attribution, both
	//    from one fused scan over the job and event columns.
	p, err := d.FusedScan(0)
	if err != nil {
		return err
	}
	s := p.Summary
	fmt.Fprintf(w, "corpus: %.0f days, %d jobs, %.2fM core-hours, %d RAS events\n",
		s.Days, s.Jobs, s.CoreHours/1e6, s.RASTotal)

	cls := p.Exit
	fmt.Fprintf(w, "failures: %d of %d jobs (%.1f%%)\n",
		cls.Failed, cls.Total, 100*float64(cls.Failed)/float64(cls.Total))
	fmt.Fprintf(w, "user-caused: %.1f%%  system-caused: %d jobs\n",
		100*cls.UserShare(), cls.SystemCause)

	// 4. System reliability from the job perspective: filtered MTTI.
	mtti, err := d.MTTI(core.DefaultFilterRule())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "MTTI: %.2f days (%d interruptions from %d raw FATAL events)\n",
		mtti.MTTIDays, mtti.Interruptions, mtti.RawFatal)
	return nil
}
