// Command mirareport runs the paper's analyses — experiments E1–E23 and the
// 22-takeaway report — over a corpus, either loaded from a directory
// written by miragen or generated in memory.
//
// Usage:
//
//	mirareport [-in corpus/] [-format auto|csv|pack] [-days 2001] [-seed 1]
//	           [-exp E6] [-takeaways] [-where 'user == u042 and sev == FATAL']
//	           [-csv out/] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Without -in, a corpus is generated with the default (or overridden)
// configuration. With -in, the corpus.mirapack binary snapshot is preferred
// when present (one read, no parse — see DESIGN.md §10); -format csv forces
// the four CSV files, -format pack requires the snapshot. Without -exp,
// every experiment runs. -csv additionally dumps every figure as a CSV
// series for plotting.
//
// -where restricts the report to a cohort: the predicate compiles to
// bitmap selections that push down into the fused scan engine (DESIGN.md
// §14), so the cohort profile prints without materializing a filtered
// corpus. Job columns: user, project, exit, nodes, dur, submit. Event
// columns: sev, cat, comp, midplane, rack, time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mirareport:", err)
		os.Exit(1)
	}
}

// run parses args as the command line and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mirareport", flag.ExitOnError)
	in := fs.String("in", "", "corpus directory written by miragen (empty = generate)")
	format := fs.String("format", "auto", "corpus format for -in: auto (prefer pack), csv, pack")
	days := fs.Int("days", 0, "override days when generating")
	seed := fs.Int64("seed", 0, "override seed when generating")
	small := fs.Bool("small", false, "generate the fast 30-day corpus")
	expID := fs.String("exp", "", "run a single experiment (E1..E23)")
	takeaways := fs.Bool("takeaways", false, "print only the 22-takeaway report")
	where := fs.String("where", "", "print the cohort profile this predicate selects and exit (e.g. 'exit != success and nodes >= 1024')")
	list := fs.Bool("list", false, "list the experiments and exit")
	csvDir := fs.String("csv", "", "also dump figure/table CSVs into this directory")
	parallelism := fs.Int("parallelism", 0, "worker bound for corpus generation and the experiment suite (0 = all cores, 1 = serial; results are identical)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mirareport: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mirareport: memprofile:", err)
			}
		}()
	}

	if *list {
		for _, exp := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", exp.ID, exp.Description)
		}
		return nil
	}

	env, err := experiments.OpenEnv(*in, *format, *days, *seed, *small, *parallelism, os.Stderr)
	if err != nil {
		return err
	}

	if *where != "" {
		return printCohort(stdout, env, *where)
	}
	if *takeaways {
		return printTakeaways(stdout, env)
	}

	var results []*experiments.Result
	if *expID != "" {
		exp, ok := experiments.ByID(*expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (run with -list to see E1..E23)", *expID)
		}
		res, err := exp.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		results = []*experiments.Result{res}
	} else {
		// One pass covers the suite and the takeaways after it, so the
		// takeaways read the job orders RunAll already sorted.
		release := env.Pass()
		defer release()
		// Fan the suite out across workers; results come back in index
		// order, so the report reads identically at any parallelism.
		if results, err = experiments.RunAll(env, *parallelism); err != nil {
			return err
		}
	}

	for _, res := range results {
		fmt.Fprintf(stdout, "=== %s: %s ===\n", res.ID, res.Description)
		for _, t := range res.Tables {
			if err := t.Render(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		for _, f := range res.Figures {
			if err := f.Render(stdout); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		if *csvDir != "" {
			if err := dumpCSVs(*csvDir, res); err != nil {
				return err
			}
		}
	}
	if *expID == "" {
		fmt.Fprintln(stdout, "=== 22 takeaways ===")
		return printTakeaways(stdout, env)
	}
	return nil
}

// printCohort renders the Cohort a -where predicate selects, through the
// rendering path shared with the mirad /v1/cohort endpoint
// (experiments.RenderCohort). Both surfaces title the report with the
// predicate's *canonical* form — the cache key every layer shares — so
// the output is bit-identical for any spelling of one selection.
func printCohort(w io.Writer, env *experiments.Env, where string) error {
	expr, err := sel.Parse(where)
	if err != nil {
		return err
	}
	p, err := env.CohortProfileExpr(expr)
	if err != nil {
		return err
	}
	return experiments.RenderCohort(w, p, expr.String())
}

// printTakeaways renders the 22 takeaways. Alone (-takeaways) it runs only
// the analyses they quote, none of the experiments.
func printTakeaways(w io.Writer, env *experiments.Env) error {
	ts, err := experiments.Takeaways(env)
	if err != nil {
		return err
	}
	for _, t := range ts {
		fmt.Fprintf(w, "%2d. [%s] %s\n", t.ID, t.Tag, t.Text)
	}
	return nil
}

func dumpCSVs(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", strings.ToLower(res.ID), i+1))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	for i, fig := range res.Figures {
		path := filepath.Join(dir, fmt.Sprintf("%s_fig%d.csv", strings.ToLower(res.ID), i+1))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fig.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
