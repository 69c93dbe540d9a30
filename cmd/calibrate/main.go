// Command calibrate prints the calibration anchors next to the paper's
// values — the check that the simulator still reproduces the abstract's
// headline numbers after any model change. It either regenerates the
// default corpus or, with -in, loads one written by miragen (preferring
// the corpus.mirapack snapshot).
//
// Usage:
//
//	calibrate [-days 2001] [-seed 1]
//	calibrate -in corpus/ [-format auto|csv|pack]
//
// When generating, MTTI comes from the simulator's ground truth; when
// loading, it is measured by the paper's filtering analysis, so the two
// modes double as a cross-check of each other.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/pack"
	"repro/internal/scan"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

func run() error {
	in := flag.String("in", "", "corpus directory written by miragen (empty = generate)")
	format := flag.String("format", "auto", "corpus format for -in: auto (prefer pack), csv, pack")
	days := flag.Int("days", 0, "override observation span when generating (0 = 2001)")
	seed := flag.Int64("seed", 0, "override RNG seed when generating (0 = default)")
	flag.Parse()

	if *in != "" {
		return fromCorpus(*in, *format)
	}
	return fromGenerator(*days, *seed)
}

func fromGenerator(days int, seed int64) error {
	cfg := sim.DefaultConfig()
	if days > 0 {
		cfg.Days = days
	}
	if seed != 0 {
		cfg.Seed = seed
	}

	start := time.Now()
	c, err := sim.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("generation time: %v\n", time.Since(start))
	mtti := float64(cfg.Days) / float64(c.Truth.KillingIncidents)
	printAnchors(float64(cfg.Days), core.BuildJobView(c.Jobs), mtti)
	fmt.Printf("\njobs=%d tasks=%d events=%d io=%d\n", len(c.Jobs), len(c.Tasks), len(c.Events), len(c.IO))
	fmt.Printf("truth: %+v\n", c.Truth)
	return nil
}

func fromCorpus(in, format string) error {
	ft, err := pack.ParseFormat(format)
	if err != nil {
		return err
	}
	start := time.Now()
	d, err := pack.LoadDir(in, ft)
	if err != nil {
		return err
	}
	fmt.Printf("load time: %v\n", time.Since(start))
	// No ground truth in a log corpus: measure MTTI the way the paper does,
	// by coalescing job-killing FATALs with the default similarity rule.
	mtti, err := d.MTTI(core.DefaultFilterRule())
	if err != nil {
		return err
	}
	printAnchors(d.Days(), d.JobView(), mtti.MTTIDays)
	fmt.Printf("\njobs=%d tasks=%d events=%d io=%d\n", d.JobView().N, d.TaskView().N, d.EventView().N, len(d.IO))
	return nil
}

// printAnchors renders the measured anchors next to the paper's values,
// scaled to the corpus span.
func printAnchors(days float64, jobs *scan.JobView, mtti float64) {
	scale := days / 2001.0
	var coreHours float64
	fams := map[joblog.ExitFamily]int{}
	for i := 0; i < jobs.N; i++ {
		coreHours += jobs.CoreHours(i)
		fams[joblog.FamilyOfCode(jobs.Family[i])]++
	}
	fails := jobs.N - fams[joblog.FamilySuccess]
	userShare := float64(fails-fams[joblog.FamilySystem]) / float64(fails)

	fmt.Printf("%-22s %14s %14s\n", "anchor", "measured", "paper (scaled)")
	row := func(name string, measured, target float64) {
		fmt.Printf("%-22s %14.3f %14.3f\n", name, measured, target)
	}
	row("days", days, 2001*scale)
	row("core-hours (B)", coreHours/1e9, 32.44*scale)
	row("job failures", float64(fails), 99245*scale)
	row("user-caused share", userShare, 0.994)
	row("MTTI (days)", mtti, 3.5)
	fmt.Printf("\nfailure families: %v\n", fams)
}
