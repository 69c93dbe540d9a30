package dist_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/joblog"
	"repro/internal/sim"
)

var (
	corpusMu sync.Mutex
	corpora  = map[int]*sim.Corpus{}
)

// simCorpus generates the small-configuration corpus over the given number
// of days once per process.
func simCorpus(tb testing.TB, days int) *sim.Corpus {
	tb.Helper()
	corpusMu.Lock()
	defer corpusMu.Unlock()
	if c, ok := corpora[days]; ok {
		return c
	}
	cfg := sim.SmallConfig()
	cfg.Days = days
	c, err := sim.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	corpora[days] = c
	return c
}

// experimentSamples returns the series E6, E12 and E22 fit on a corpus:
// the failed-job execution lengths of each exit family E6 fits (thinned to
// the 5000 points its KS-polish ablation uses), the interruption intervals
// and the repair times.
func experimentSamples(tb testing.TB, c *sim.Corpus) map[string]*dist.Sample {
	tb.Helper()
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string]*dist.Sample{}
	byFamily := map[joblog.ExitFamily][]float64{}
	jobs := d.JobRecords()
	for i := range jobs {
		j := &jobs[i]
		if j.Outcome() != joblog.OutcomeFailure {
			continue
		}
		if sec := j.Runtime().Seconds(); sec > 0 {
			fam := joblog.Family(j.ExitStatus)
			byFamily[fam] = append(byFamily[fam], sec)
		}
	}
	for fam, runtimes := range byFamily {
		if len(runtimes) < 100 {
			continue
		}
		if len(runtimes) > 5000 {
			step := float64(len(runtimes)) / 5000
			thinned := make([]float64, 5000)
			for i := range thinned {
				thinned[i] = runtimes[int(float64(i)*step)]
			}
			runtimes = thinned
		}
		out["E6/"+string(fam)] = dist.NewSample(runtimes)
	}
	if m, err := d.MTTI(core.DefaultFilterRule()); err == nil && m.IntervalSample != nil {
		out["E12/intervals"] = m.IntervalSample
	}
	if a, err := d.Availability(); err == nil && a.RepairSample != nil {
		out["E22/repairs"] = a.RepairSample
	}
	return out
}

// TestKSPolishMatchesFullScanOnCorpus checks KSPolish — collapsed ECDF,
// branch-and-bound rejection, one reused candidate buffer — against the
// full-scan coordinate descent on the series the experiments fit: for every
// family that fits each series, the polished parameters and the KS bits
// must be identical.
func TestKSPolishMatchesFullScanOnCorpus(t *testing.T) {
	pairs := 0
	for _, days := range []int{30, 150} {
		samples := experimentSamples(t, simCorpus(t, days))
		if len(samples) < 3 {
			t.Fatalf("%d days: %d experiment series, want E6, E12 and E22", days, len(samples))
		}
		for name, s := range samples {
			for _, f := range dist.DefaultFitters() {
				fitted, err := f.Fit(s)
				if err != nil {
					continue
				}
				p := fitted.(dist.Parametric)
				label := fmt.Sprintf("%dd %s %s", days, name, f.FamilyName())
				gotD, gotKS, _, err := dist.KSPolish(p, s, 20)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				wantD, wantKS := dist.KSPolishFullScan(p, s.Sorted(), 20)
				if math.Float64bits(gotKS) != math.Float64bits(wantKS) {
					t.Errorf("%s: KS %v, full scan %v", label, gotKS, wantKS)
				}
				if !reflect.DeepEqual(gotD, wantD) {
					t.Errorf("%s: polished to %+v, full scan %+v", label, gotD, wantD)
				}
				pairs++
			}
		}
	}
	t.Logf("%d (series, family) pairs", pairs)
}
