package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pack"
)

// suiteSetups is how many times paper-suite loads the corpus and builds a
// fresh Env; setup_s is the median.
const suiteSetups = 5

// Anchor tolerances, as the experiments package's tests pin them.
var anchors = []struct {
	exp, metric string
	lo, hi      float64
}{
	{"E4", "user_share", 0.985, 0.999},
	{"E12", "mtti_days", 3.5 * 0.65, 3.5 * 1.45},
}

// loadSuite loads the corpus suiteSetups times and reports the median of
// pack.LoadDir plus a fresh Env; it keeps the last Dataset.
func loadSuite(dir string, rep *report) (*core.Dataset, error) {
	var setups []float64
	var d *core.Dataset
	for i := 0; i < suiteSetups; i++ {
		if d != nil {
			d = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if d, err = pack.LoadDir(dir, pack.FormatPack); err != nil {
			return nil, err
		}
		env := experiments.NewEnvFromDataset(d)
		env.Parallelism = scanWorkers
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.add("setup_s", median(setups), "s", len(setups))
	return d, nil
}

// pass is one timed RunAll pass: its rendered report, wall and CPU time.
type pass struct {
	out       []byte
	wall, cpu time.Duration
	results   []*experiments.Result
}

// suitePass runs RunAll once on a fresh Env over d.
func suitePass(d *core.Dataset) (pass, error) {
	env := experiments.NewEnvFromDataset(d)
	env.Parallelism = scanWorkers
	cpu0, _ := usage()
	t0 := time.Now()
	results, err := experiments.RunAll(env, scanWorkers)
	wall := time.Since(t0)
	cpu1, _ := usage()
	if err != nil {
		return pass{}, err
	}
	out, err := renderResults(results)
	return pass{out: out, wall: wall, cpu: cpu1 - cpu0, results: results}, err
}

// renderResults renders the suite as mirareport prints it.
func renderResults(results []*experiments.Result) ([]byte, error) {
	var b bytes.Buffer
	for _, res := range results {
		fmt.Fprintf(&b, "=== %s: %s ===\n", res.ID, res.Description)
		for _, t := range res.Tables {
			if err := t.Render(&b); err != nil {
				return nil, err
			}
			b.WriteByte('\n')
		}
		for _, f := range res.Figures {
			if err := f.Render(&b); err != nil {
				return nil, err
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes(), nil
}

// checkAnchors holds the suite to the paper anchors the experiments tests
// pin.
func checkAnchors(results []*experiments.Result, rep *report) {
	for _, a := range anchors {
		found := false
		for _, res := range results {
			if res.ID != a.exp {
				continue
			}
			v, ok := res.Metrics[a.metric]
			found = ok
			if ok && (v < a.lo || v > a.hi) {
				rep.fail("%s %s = %v outside [%v, %v]", a.exp, a.metric, v, a.lo, a.hi)
			}
		}
		if !found {
			rep.fail("%s %s missing from the suite", a.exp, a.metric)
		}
	}
}

func runPaperSuite(o options, dir string, rep *report) error {
	d, err := loadSuite(dir, rep)
	if err != nil {
		return err
	}
	// An untimed first pass fills the Dataset's lazy state, gives the
	// reference bytes and is checked against the anchors.
	first, err := suitePass(d)
	if err != nil {
		return err
	}
	checkAnchors(first.results, rep)
	walls, cpus, err := suitePasses(d, first.out, time.Duration(o.seconds)*time.Second, rep)
	if err != nil {
		return err
	}
	// One operation is one RunAll pass. A run holds a handful of passes,
	// so throughput is that of the median pass, which one slow pass
	// cannot move. No percentile above the median has ten samples beyond
	// it, so the tail reported is the median pass too.
	n := len(walls)
	med := median(walls)
	rep.add("ops_per_s", 1/med, "1/s", n)
	rep.add("latency_p50_ms", med*1000, "ms", n)
	rep.add("latency_tail_ms", med*1000, "ms", n)
	rep.add("cpu_ms_per_op", median(cpus)*1000, "ms", n)
	addMemory(rep)
	runtime.KeepAlive(d) // the live heap counts the loaded corpus
	return nil
}

// suitePasses repeats timed passes until dur has elapsed (at least one),
// checking that every pass renders the reference bytes.
func suitePasses(d *core.Dataset, ref []byte, dur time.Duration, rep *report) (walls, cpus []float64, err error) {
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < dur {
		rep.attempted++
		// Each pass starts from the heap of a freshly loaded corpus, as a
		// mirareport process does, so every pass pays the same collections.
		runtime.GC()
		p, err := suitePass(d)
		if err != nil {
			return nil, nil, err
		}
		if !bytes.Equal(p.out, ref) {
			rep.fail("suite pass %d renders different bytes from the first pass", len(walls)+1)
		}
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		rep.note("pass %d: %.3f s wall, %.3f s CPU", len(walls), p.wall.Seconds(), p.cpu.Seconds())
	}
	return walls, cpus, nil
}
