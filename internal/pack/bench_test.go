package pack_test

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/sim"
	"repro/internal/tasklog"
)

// The paired LoadCSV/LoadPack benchmarks measure the full corpus-load hot
// path — disk to fully indexed core.Dataset — over the same corpus
// directory. LoadPack reports "speedup": one CSV load timed outside the
// benchmark timer divided by the per-iteration pack load, following the
// Serial/Parallel pairing convention of the PR 1/2 benches. The corpus is
// 120 days (≈22k jobs / ≈75k events): large enough that per-row parsing
// dominates and the ratio transfers to the 2001-day corpus.

const benchCorpusDays = 120

var (
	benchDirOnce sync.Once
	benchDir     string
	benchDirErr  error
)

// benchCorpusDir generates the benchmark corpus once per process and
// writes both representations into a temp directory.
func benchCorpusDir(b *testing.B) string {
	b.Helper()
	benchDirOnce.Do(func() {
		dir, err := os.MkdirTemp("", "mirapack-bench-")
		if err != nil {
			benchDirErr = err
			return
		}
		cfg := sim.SmallConfig()
		cfg.Days = benchCorpusDays
		c, err := sim.Generate(cfg)
		if err != nil {
			benchDirErr = err
			return
		}
		d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
		if err != nil {
			benchDirErr = err
			return
		}
		for _, part := range []struct {
			file  string
			write func(*os.File) error
		}{
			{"jobs.csv", func(f *os.File) error { return joblog.WriteCSV(f, d.JobRecords()) }},
			{"tasks.csv", func(f *os.File) error { return tasklog.WriteCSV(f, d.TaskRecords()) }},
			{"ras.csv", func(f *os.File) error { return raslog.WriteCSV(f, d.EventRecords()) }},
			{"io.csv", func(f *os.File) error { return iolog.WriteCSV(f, d.IO) }},
		} {
			f, err := os.Create(filepath.Join(dir, part.file))
			if err != nil {
				benchDirErr = err
				return
			}
			if err := part.write(f); err != nil {
				f.Close()
				benchDirErr = err
				return
			}
			if err := f.Close(); err != nil {
				benchDirErr = err
				return
			}
		}
		benchDirErr = pack.WriteFile(pack.SnapshotPath(dir), d)
		benchDir = dir
	})
	if benchDirErr != nil {
		b.Fatal(benchDirErr)
	}
	return benchDir
}

func BenchmarkLoadCSV(b *testing.B) {
	dir := benchCorpusDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	// Drop and collect the previous dataset outside the timer before each
	// load: a consumer loads into a fresh heap, and paying the collection of
	// the previous iteration's corpus inside the timed region would charge
	// the load for work the benchmark loop created.
	var d *core.Dataset
	var err error
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d = nil
		runtime.GC()
		b.StartTimer()
		d, err = pack.LoadDir(dir, pack.FormatCSV)
		if err != nil {
			b.Fatal(err)
		}
		if d.JobView().N == 0 {
			b.Fatal("empty dataset")
		}
	}
}

func BenchmarkLoadPack(b *testing.B) {
	dir := benchCorpusDir(b)
	// Median of three CSV loads: the baseline is sampled outside the timer,
	// and a single sample on a shared machine can absorb a scheduling stall
	// that would swing the reported ratio by 2x.
	var samples []time.Duration
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := pack.LoadDir(dir, pack.FormatCSV); err != nil {
			b.Fatal(err)
		}
		samples = append(samples, time.Since(t0))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	csvLoad := samples[1]
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	var d *core.Dataset
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d = nil
		runtime.GC()
		b.StartTimer()
		d, err = pack.LoadDir(dir, pack.FormatPack)
		if err != nil {
			b.Fatal(err)
		}
		if d.JobView().N == 0 {
			b.Fatal("empty dataset")
		}
	}
	b.StopTimer()
	if b.N > 0 && b.Elapsed() > 0 {
		perIter := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(float64(csvLoad.Nanoseconds())/perIter, "speedup")
	}
	// live_MB is the heap the last loaded dataset keeps live, all four
	// logs and their indexes, collected with the dataset held and again
	// after dropping it; live_B/event is the same bytes per RAS event.
	// mapped_MB is the snapshot mapping the dataset's columns are adopted
	// from, which the heap does not count: the mapped bytes with the
	// dataset held, less those once its mapping has been retired.
	var held, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	heldMapped := pack.MappedBytes()
	events := d.EventView().N
	d = nil
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	for i := 0; i < 100 && pack.MappedBytes() == heldMapped && heldMapped > 0; i++ {
		time.Sleep(time.Millisecond)
		runtime.GC()
	}
	if held.HeapAlloc > dropped.HeapAlloc {
		live := float64(held.HeapAlloc - dropped.HeapAlloc)
		b.ReportMetric(live/(1<<20), "live_MB")
		if events > 0 {
			b.ReportMetric(live/float64(events), "live_B/event")
		}
	}
	if mapped := heldMapped - pack.MappedBytes(); mapped > 0 {
		b.ReportMetric(float64(mapped)/(1<<20), "mapped_MB")
	}
}
