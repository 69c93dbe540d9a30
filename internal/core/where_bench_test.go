package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/sel"
)

// Benchmark_FusedScanWhere times one cohort miss per iteration — compile
// plus pushdown scan of a predicate never seen before — for the five
// shapes of the mirabench cohort stream: user (job side only), rack_fatal
// (event side only), week (a submit and an event-time window), failed_big
// (job side only, one-sided submit bound) and user_events (one user's
// jobs and a week of events). The dataset is warm, as in mirad after
// Warm: indexes built and the whole-table memo filled.
func Benchmark_FusedScanWhere(b *testing.B) {
	d := benchDataset(b)
	d.IndexStats()
	if _, err := d.FusedScan(1); err != nil {
		b.Fatal(err)
	}
	jv := d.JobView()
	start, end := d.Span()
	stamp := func(t time.Time) string { return t.UTC().Format("2006-01-02T15:04:05") }
	// at returns a distinct instant for every iteration, inside the first
	// span-margin of the corpus, so no iteration reuses a compiled entry.
	at := func(i int, margin time.Duration) time.Time {
		steps := int(end.Sub(start)-margin) / int(time.Minute)
		return start.Add(time.Duration(i%steps) * time.Minute)
	}
	shapes := []struct {
		name  string
		where func(i int) string
	}{
		{"user", func(i int) string {
			lo := at(i, 30*24*time.Hour)
			return fmt.Sprintf("user == %q and submit >= %s and submit < %s",
				jv.Users[i%len(jv.Users)], stamp(lo), stamp(lo.Add(30*24*time.Hour)))
		}},
		{"rack_fatal", func(i int) string {
			rack, _ := machine.Rack(i % machine.NumRacks)
			return fmt.Sprintf("rack == %s and sev == FATAL and time >= %s", rack, stamp(at(i, 7*24*time.Hour)))
		}},
		{"week", func(i int) string {
			lo := at(i, 7*24*time.Hour)
			hi := lo.Add(7 * 24 * time.Hour)
			return fmt.Sprintf("submit >= %s and submit < %s and time >= %s and time < %s",
				stamp(lo), stamp(hi), stamp(lo), stamp(hi))
		}},
		{"failed_big", func(i int) string {
			nodes := []int{1024, 2048, 4096, 8192}[i%4]
			return fmt.Sprintf("exit != success and nodes >= %d and submit >= %s", nodes, stamp(at(i, 7*24*time.Hour)))
		}},
		{"user_events", func(i int) string {
			lo := at(i, 7*24*time.Hour)
			return fmt.Sprintf("user == %q and time >= %s and time < %s",
				jv.Users[i%len(jv.Users)], stamp(lo), stamp(lo.Add(7*24*time.Hour)))
		}},
	}
	for _, s := range shapes {
		next := 0 // carries across the framework's b.N rounds
		b.Run(s.name, func(b *testing.B) {
			exprs := make([]sel.Expr, b.N)
			for i := range exprs {
				e, err := sel.Parse(s.where(next))
				next++
				if err != nil {
					b.Fatal(err)
				}
				exprs[i] = e
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, e := range exprs {
				if _, err := d.FusedScanWhere(e, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIndexStats times IndexStats on a cold Dataset of the 90-day
// corpus: all nine selection-index dimensions built, concurrently at
// GOMAXPROCS, and their sizes summed. Each iteration's Dataset is built
// over the column views of a warm one outside the timer, so only the index
// builds are timed.
func BenchmarkIndexStats(b *testing.B) {
	src := benchDataset(b)
	jv, tv, ev := src.JobView(), src.TaskView(), src.EventView()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := NewDatasetFromViews(src.IO, jv, tv, ev)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if st := d.IndexStats(); len(st) != int(numDims) {
			b.Fatalf("IndexStats reported %d dimensions, want %d", len(st), numDims)
		}
	}
}
