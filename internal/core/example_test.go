package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Example shows the end-to-end analysis workflow: generate a corpus, index
// the four logs, classify failures (the fused profile's exit-status tally)
// and derive the MTTI — the two headline numbers of the paper.
func Example() {
	cfg := sim.SmallConfig()
	cfg.Days = 60
	corpus, err := sim.Generate(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	d, err := core.NewDataset(corpus.Jobs, corpus.Tasks, corpus.Events, corpus.IO)
	if err != nil {
		fmt.Println(err)
		return
	}
	p, err := d.FusedScan(0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("user-caused share above 98%%: %v\n", p.Exit.UserShare() > 0.98)

	mtti, err := d.MTTI(core.DefaultFilterRule())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("filtering compresses the FATAL stream: %v\n",
		mtti.RawFatal > 5*mtti.Interruptions)
	fmt.Printf("MTTI within [1,10] days: %v\n",
		mtti.MTTIDays >= 1 && mtti.MTTIDays <= 10)
	// Output:
	// user-caused share above 98%: true
	// filtering compresses the FATAL stream: true
	// MTTI within [1,10] days: true
}

// ExampleDataset_FitExecutionLengths reproduces the paper's per-exit-code
// distribution fitting on a small corpus.
func ExampleDataset_FitExecutionLengths() {
	cfg := sim.SmallConfig()
	cfg.Days = 90
	corpus, err := sim.Generate(cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	d, err := core.NewDataset(corpus.Jobs, corpus.Tasks, corpus.Events, corpus.IO)
	if err != nil {
		fmt.Println(err)
		return
	}
	fits, err := d.FitExecutionLengths(core.FitOptions{MinSamples: 200})
	if err != nil {
		fmt.Println(err)
		return
	}
	distinct := map[string]bool{}
	for _, f := range fits {
		distinct[f.Best().Family] = true
	}
	fmt.Printf("families fitted: %v\n", len(fits) >= 4)
	fmt.Printf("best fit differs across exit codes: %v\n", len(distinct) >= 3)
	// Output:
	// families fitted: true
	// best fit differs across exit codes: true
}
