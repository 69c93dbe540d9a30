package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/sim"
)

// TestGolden pins the incident CSV mirafilter prints, byte for byte, and
// its summary line, on the -small corpus written to disk as miragen writes
// it: the default FATAL filter, the WARN stream read from the CSV log and
// from the snapshot, node-level category similarity, and a -where
// restriction. The goldens are edited only by a change that means to alter
// the output.
func TestGolden(t *testing.T) {
	dir := writeSmallCorpus(t)
	ras, snapshot := filepath.Join(dir, "ras.csv"), pack.SnapshotPath(dir)
	for _, c := range []struct {
		name, golden, summary string
		args                  []string
	}{
		{"fatal", "fatal.golden",
			"read 18893 events, 238 FATAL; emitted 16 incidents (14.9x reduction)",
			[]string{"-in", ras}},
		{"warn/csv", "warn.golden",
			"read 18893 events, 5939 WARN; emitted 5657 incidents (1.0x reduction)",
			[]string{"-in", ras, "-severity", "WARN"}},
		{"warn/pack", "warn.golden",
			"read 18893 events, 5939 WARN; emitted 5657 incidents (1.0x reduction)",
			[]string{"-in", snapshot, "-severity", "WARN"}},
		{"node-by-category", "node_bycat.golden",
			"read 18893 events, 238 FATAL; emitted 98 incidents (2.4x reduction)",
			[]string{"-in", ras, "-level", "node", "-by-message=false"}},
		{"warn-where", "warn_where.golden",
			"read 18893 events, 1078 WARN; emitted 1062 incidents (1.0x reduction)",
			[]string{"-in", ras, "-severity", "WARN", "-where", "rack == R01 or cat == Memory"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if err := run(c.args, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("mirafilter %s differs from %s: %s", strings.Join(c.args[2:], " "), c.golden, firstDiff(stdout.String(), string(want)))
			}
			if got := strings.TrimSuffix(stderr.String(), "\n"); got != c.summary {
				t.Errorf("summary %q, want %q", got, c.summary)
			}
		})
	}
}

// TestShuffledLogMatchesSorted feeds mirafilter the -small corpus's RAS log
// with its rows shuffled and checks that it prints the bytes the
// time-ordered log gives. Rows of one second move as a block: the filter
// orders events by time and keeps the log's order within a second.
func TestShuffledLogMatchesSorted(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var seconds [][]raslog.Event
	for i := 0; i < len(c.Events); {
		j := i + 1
		for j < len(c.Events) && c.Events[j].Time.Equal(c.Events[i].Time) {
			j++
		}
		seconds = append(seconds, c.Events[i:j])
		i = j
	}
	rand.New(rand.NewSource(1)).Shuffle(len(seconds), func(a, b int) { seconds[a], seconds[b] = seconds[b], seconds[a] })
	shuffled := make([]raslog.Event, 0, len(c.Events))
	for _, s := range seconds {
		shuffled = append(shuffled, s...)
	}
	dir := t.TempDir()
	logs := map[string][]raslog.Event{"sorted.csv": c.Events, "shuffled.csv": shuffled}
	for name, events := range logs {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := raslog.WriteCSV(f, events); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{
		nil,
		{"-severity", "WARN", "-where", "rack == R01 or cat == Memory"},
		{"-level", "node", "-by-message=false"},
	} {
		var out [2]bytes.Buffer
		for k, name := range []string{"sorted.csv", "shuffled.csv"} {
			if err := run(append([]string{"-in", filepath.Join(dir, name)}, args...), &out[k], &out[k]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
			t.Errorf("mirafilter %s: shuffled log differs from the sorted one: %s", strings.Join(args, " "), firstDiff(out[1].String(), out[0].String()))
		}
	}
}

// writeSmallCorpus writes the -small corpus's RAS log and binary snapshot
// into a temporary directory the way miragen does.
func writeSmallCorpus(t *testing.T) string {
	t.Helper()
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "ras.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := raslog.WriteCSV(f, c.Events); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
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
