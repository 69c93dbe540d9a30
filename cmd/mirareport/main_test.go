package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/sim"
	"repro/internal/tasklog"
)

// TestGolden pins the report mirareport prints, byte for byte, against the
// committed files in testdata: the full suite plus takeaways on the
// in-memory -small corpus at two worker counts, the takeaways alone, a
// 150-day corpus with another seed, and the -small corpus written to disk
// as miragen writes it and read back from the snapshot and from the CSVs.
// The goldens are edited only by a change that means to alter the report.
// A corpus in memory and the same corpus on disk are one dataset, so the
// -small runs and both loaded runs share one golden.
func TestGolden(t *testing.T) {
	corpus := writeSmallCorpus(t)
	for _, c := range []struct {
		name, golden string
		args         []string
	}{
		{"small/parallelism=1", "small_loaded.golden", []string{"-small", "-parallelism", "1"}},
		{"small/parallelism=0", "small_loaded.golden", []string{"-small", "-parallelism", "0"}},
		{"small/takeaways", "small_takeaways.golden", []string{"-small", "-takeaways"}},
		{"days150/seed7", "days150_seed7.golden", []string{"-days", "150", "-seed", "7"}},
		{"loaded/pack", "small_loaded.golden", []string{"-in", corpus, "-format", "pack"}},
		{"loaded/csv", "small_loaded.golden", []string{"-in", corpus, "-format", "csv"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(c.args, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("mirareport %s differs from %s: %s", strings.Join(c.args, " "), c.golden, firstDiff(got.String(), string(want)))
			}
		})
	}
}

// writeSmallCorpus writes the -small corpus into a temporary directory the
// way miragen does: the four CSV logs plus the binary snapshot.
func writeSmallCorpus(t *testing.T) string {
	t.Helper()
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, encode func(f *os.File) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := encode(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("jobs.csv", func(f *os.File) error { return joblog.WriteCSV(f, c.Jobs) })
	write("tasks.csv", func(f *os.File) error { return tasklog.WriteCSV(f, c.Tasks) })
	write("ras.csv", func(f *os.File) error { return raslog.WriteCSV(f, c.Events) })
	write("io.csv", func(f *os.File) error { return iolog.WriteCSV(f, c.IO) })
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	if err := pack.WriteFile(pack.SnapshotPath(dir), d); err != nil {
		t.Fatal(err)
	}
	return dir
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
