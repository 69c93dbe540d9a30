package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness repeats the untraced (or traced) run of one workload on n
// consecutive seeds, each in its own process as a single run is made, and
// prints each metric's median, quartiles, interquartile spread as a share
// of the median, and largest deviation from the median.
func steadiness(o options, n int, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(exe, "-root", o.root, "-workload", o.workload,
			"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", trace)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		if !res.Correct || res.Failed != 0 {
			return fmt.Errorf("seed %d: correct=%v failed=%d", seed, res.Correct, res.Failed)
		}
		fmt.Fprintf(stderr, "mirabench: steady %s seed %d: %d attempted\n", o.workload, seed, res.Attempted)
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s over %d seeds from %d, %d s each\n", o.workload, n, o.seed, o.seconds)
	fmt.Fprintf(stdout, "%-40s %12s %12s %12s %8s %8s  %s\n", "metric", "q1", "median", "q3", "iqr/med", "maxdev", "unit")
	summary := map[string]map[string]float64{}
	for _, name := range names {
		v := values[name]
		q1, q2, q3 := quartiles(v)
		med := median(v)
		var dev float64
		for _, x := range v {
			dev = math.Max(dev, math.Abs(x-med))
		}
		spread := (q3 - q1) / med
		fmt.Fprintf(stdout, "%-40s %12.6g %12.6g %12.6g %8.4f %8.4f  %s\n",
			name, q1, q2, q3, spread, dev/med, units[name])
		summary[name] = map[string]float64{"q1": q1, "median": q2, "q3": q3, "spread": spread, "max_dev": dev / med}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// lastResult parses the last line of a run's standard output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
