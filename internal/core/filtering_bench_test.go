package core

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/raslog"
	"repro/internal/sim"
)

// The filter-sweep paired benchmark compares the Dataset sweep (FATAL view,
// memoized interned keys, one coalesce per window) against the pre-index
// reference (severity re-scan + key recomputation per window) on the same
// corpus and reports the ratio as "speedup".

var fbData par.Memo[*Dataset]

func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	d, err := fbData.Get(func() (*Dataset, error) {
		cfg := sim.SmallConfig()
		cfg.Days = 90
		cfg.NumUsers = 200
		cfg.NumProjects = 60
		c, err := sim.Generate(cfg)
		if err != nil {
			return nil, err
		}
		return NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func sweepWindows() []time.Duration {
	return []time.Duration{
		30 * time.Second, time.Minute, 2 * time.Minute, 5 * time.Minute,
		10 * time.Minute, 20 * time.Minute, 40 * time.Minute, time.Hour,
		2 * time.Hour, 6 * time.Hour,
	}
}

// referenceFilterSweep is the pre-index sweep: each window re-runs the full
// severity scan and key computation (the old FilterBySeverity), serially.
func referenceFilterSweep(b *testing.B, events []raslog.Event, base FilterRule, windows []time.Duration) []SweepPoint {
	b.Helper()
	raw := 0
	for i := range events {
		if events[i].Sev == raslog.Fatal {
			raw++
		}
	}
	out := make([]SweepPoint, len(windows))
	for i, w := range windows {
		rule := base
		rule.Window = w
		incidents, err := referenceFilterBySeverity(events, raslog.Fatal, rule)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = SweepPoint{Window: w, Incidents: len(incidents)}
		if raw > 0 {
			out[i].Reduction = 1 - float64(len(incidents))/float64(raw)
		}
	}
	return out
}

// BenchmarkFilterSweepVsReference times the new sweep (single worker, so the
// comparison isolates the algorithmic change from parallelism) and reports
// old-time/new-time as "speedup".
func BenchmarkFilterSweepVsReference(b *testing.B) {
	d := benchDataset(b)
	recs := d.EventRecords()
	base := DefaultFilterRule()
	windows := sweepWindows()

	t0 := time.Now()
	ref := referenceFilterSweep(b, recs, base, windows)
	refTime := time.Since(t0)

	var got []SweepPoint
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		got, err = d.FilterSweep(base, windows, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for i := range got {
		if got[i] != ref[i] {
			b.Fatalf("sweep point %d diverges from reference", i)
		}
	}
	if b.N > 0 && b.Elapsed() > 0 {
		perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(refTime.Nanoseconds())/perIter, "speedup")
	}
}

// BenchmarkFilterFatalIndexed measures the Dataset-level filter, the one
// path the analyses use: the FATAL view skips the severity scan and, after
// the first iteration, the key memo skips the interning, so each call pays
// only the array-indexed coalesce.
func BenchmarkFilterFatalIndexed(b *testing.B) {
	d := benchDataset(b)
	rule := DefaultFilterRule()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.FilterFatal(rule); err != nil {
			b.Fatal(err)
		}
	}
}

// The paired BenchmarkIncidentConsumers/{rows,columns} times E16 and E21
// end to end on the 90-day corpus: the default-rule FATAL and WARN folds,
// the four-lookback lead-time sweep and the torus correlation at E21's
// three windows. rows runs the row oracles (referenceFilterBySeverity,
// referenceLeadTimeSweep, referenceSpatialCorrelation); columns runs the
// Dataset path the experiments run, with the key memo warm, as in a
// long-lived process. columns reports "speedup": the median of three rows
// runs divided by its per-iteration time.

var (
	incidentBenchLookbacks = []time.Duration{time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour}
	incidentBenchWindows   = []time.Duration{time.Hour, 6 * time.Hour, 24 * time.Hour}
)

func incidentBenchOptions() []LeadTimeOptions {
	opts := make([]LeadTimeOptions, len(incidentBenchLookbacks))
	for i, lb := range incidentBenchLookbacks {
		opts[i] = DefaultLeadTimeOptions()
		opts[i].Lookback = lb
	}
	return opts
}

func runIncidentRows(b *testing.B, d *Dataset) {
	recs := d.EventRecords()
	rule := DefaultFilterRule()
	fatals, err := referenceFilterBySeverity(recs, raslog.Fatal, rule)
	if err != nil {
		b.Fatal(err)
	}
	warns, err := referenceFilterBySeverity(recs, raslog.Warn, rule)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := referenceLeadTimeSweep(fatals, warns, incidentBenchOptions()); err != nil {
		b.Fatal(err)
	}
	for _, w := range incidentBenchWindows {
		if _, err := referenceSpatialCorrelation(fatals, w); err != nil {
			b.Fatal(err)
		}
	}
}

func runIncidentColumns(b *testing.B, d *Dataset) {
	rule := DefaultFilterRule()
	fatals, err := d.FilterFatal(rule)
	if err != nil {
		b.Fatal(err)
	}
	warns, err := d.FilterWarn(rule)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := d.LeadTimeSweep(fatals, warns, incidentBenchOptions()); err != nil {
		b.Fatal(err)
	}
	for _, w := range incidentBenchWindows {
		if _, err := d.SpatialCorrelationIncidents(fatals, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncidentConsumers(b *testing.B) {
	d := benchDataset(b)
	runIncidentColumns(b, d) // warm the key memo and the event view
	b.Run("rows", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runIncidentRows(b, d)
		}
	})
	b.Run("columns", func(b *testing.B) {
		var samples []time.Duration
		for i := 0; i < 3; i++ {
			runtime.GC()
			t0 := time.Now()
			runIncidentRows(b, d)
			samples = append(samples, time.Since(t0))
		}
		slices.Sort(samples)
		rows := samples[1]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runIncidentColumns(b, d)
		}
		b.StopTimer()
		if b.N > 0 && b.Elapsed() > 0 {
			perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(rows.Nanoseconds())/perIter, "speedup")
		}
	})
}
