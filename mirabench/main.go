// Command mirabench is the repository's benchmark. It runs one named
// workload against the paper-scale corpus (sim.DefaultConfig: 2001 days,
// seed 1), checks that every output is correct, prints each metric with
// its unit and sample count, and ends with one JSON result line.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash mirabench/run.sh --workload cohort-miss --seed 1 --seconds 10 --trace 0
//	bash mirabench/run.sh --workload cohort-hot  --seed 1 --seconds 10 --trace 1
//	bash mirabench/run.sh --workload paper-suite --seed 1 --seconds 10 --steady 10
//
// --trace 0 prints the end-to-end metrics of the workload; --trace 1
// replays the workload's inputs through every layer with spans recorded
// and prints the per-layer metrics; --steady N repeats the untraced run
// on N consecutive seeds and prints each metric's median, quartiles and
// largest deviation from the median. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	root     string
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// workload is one set of inputs the benchmark runs; README.md says why
// each exists.
type workload struct {
	name string
	// run measures the workload untraced and adds its end-to-end metrics.
	run func(o options, dir string, rep *report) error
}

var workloads = []workload{
	{"cohort-miss", runCohortMiss},
	{"cohort-hot", runCohortHot},
	{"paper-suite", runPaperSuite},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mirabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace, steady int
	var prepare string
	fs.StringVar(&o.root, "root", ".", "repository root (holds go.mod and internal/)")
	fs.StringVar(&o.workload, "workload", "", "workload: cohort-miss, cohort-hot or paper-suite")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the request stream (the corpus is fixed)")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.IntVar(&steady, "steady", 0, "repeat the untraced run on this many seeds and report the spread")
	fs.StringVar(&prepare, "prepare", "", "internal: generate the corpus snapshot into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if prepare != "" {
		if err := generateCorpus(prepare); err != nil {
			fmt.Fprintln(stderr, "mirabench: prepare:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "mirabench: unknown workload %q (want %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "mirabench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if steady > 0 {
		if err := steadiness(o, steady, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "mirabench: steady:", err)
			return 1
		}
		return 0
	}

	dir, err := corpusDir(o.root, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mirabench:", err)
		return 1
	}
	rep := &report{out: stdout, errw: stderr, metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "mirabench: workload %s, seed %d, %d s, trace %d, GOMAXPROCS %d\n",
		w.name, o.seed, o.seconds, trace, runtime.GOMAXPROCS(0))
	if o.trace {
		err = runTraced(o, w, dir, rep)
	} else {
		err = w.run(o, dir, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mirabench:", err)
		return 1
	}
	if err := rep.finish(); err != nil {
		fmt.Fprintln(stderr, "mirabench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and correctness failures.
type report struct {
	out, errw         io.Writer
	metrics           map[string]metric
	attempted, failed int
	problems          int
}

// add records a metric and prints it with its unit and sample count.
func (r *report) add(name string, value float64, unit string, samples int) {
	r.metrics[name] = metric{Value: value, Unit: unit}
	fmt.Fprintf(r.out, "  %-40s %14.6g %-6s n=%d\n", name, value, unit, samples)
}

// note prints an informational figure that is not a gated metric.
func (r *report) note(format string, args ...any) {
	fmt.Fprintf(r.out, "  "+format+"\n", args...)
}

// fail records a correctness failure; the run then exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.problems++
	if r.problems <= 20 {
		fmt.Fprintf(r.errw, "mirabench: CHECK FAILED: "+format+"\n", args...)
	}
}

func (r *report) correct() bool { return r.problems == 0 && r.failed == 0 }

// finish prints the result line, which is the last line of
// standard output.
func (r *report) finish() error {
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(result{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "fail_ratio %.6g (%d failed of %d attempted)\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	_, err = fmt.Fprintf(r.out, "%s\n", b)
	return err
}

// usage is the process's CPU time so far and its peak resident set.
func usage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
