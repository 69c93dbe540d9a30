package pack

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/tasklog"
)

// Format selects how a corpus directory is loaded.
type Format int

// Corpus formats.
const (
	// FormatAuto prefers the binary snapshot when corpus.mirapack exists
	// and falls back to the CSVs otherwise.
	FormatAuto Format = iota
	// FormatCSV forces the four CSV files.
	FormatCSV
	// FormatPack requires the binary snapshot.
	FormatPack
)

// String returns the flag spelling of the format.
func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatCSV:
		return "csv"
	case FormatPack:
		return "pack"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat parses a -format flag value.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "auto":
		return FormatAuto, nil
	case "csv":
		return FormatCSV, nil
	case "pack":
		return FormatPack, nil
	default:
		return 0, fmt.Errorf("pack: unknown corpus format %q (want auto, csv or pack)", s)
	}
}

// SnapshotPath returns the conventional snapshot path inside a corpus
// directory.
func SnapshotPath(dir string) string { return filepath.Join(dir, SnapshotName) }

// IsSnapshotFile reports whether the file at path begins with the snapshot
// magic — a cheap sniff for tools whose input may be either a CSV log or a
// snapshot. Unreadable or too-short files report false.
func IsSnapshotFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var head [len(magic)]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return false
	}
	return string(head[:]) == magic
}

// LoadDir loads a corpus directory written by miragen into a fully indexed
// dataset. With FormatAuto it prefers the corpus.mirapack snapshot (one
// read, no parse) and falls back to the four CSVs.
func LoadDir(dir string, format Format) (*core.Dataset, error) {
	snapshot := SnapshotPath(dir)
	switch format {
	case FormatPack:
		return ReadFile(snapshot)
	case FormatCSV:
		return LoadCSVDir(dir)
	case FormatAuto:
		if _, err := os.Stat(snapshot); err == nil {
			return ReadFile(snapshot)
		}
		return LoadCSVDir(dir)
	default:
		return nil, fmt.Errorf("pack: unknown corpus format %v", format)
	}
}

// LoadCSVDir loads the four CSV logs from a corpus directory and indexes
// them the slow way (full parse plus index construction).
func LoadCSVDir(dir string) (*core.Dataset, error) {
	var jobs []joblog.Job
	var tasks []tasklog.Task
	var events []raslog.Event
	var ioRecs []iolog.Record
	for _, part := range []struct {
		file string
		read func(*os.File) error
	}{
		{"jobs.csv", func(f *os.File) (err error) { jobs, err = joblog.ReadCSV(f); return }},
		{"tasks.csv", func(f *os.File) (err error) { tasks, err = tasklog.ReadCSV(f); return }},
		{"ras.csv", func(f *os.File) (err error) { events, err = raslog.ReadCSV(f); return }},
		{"io.csv", func(f *os.File) (err error) { ioRecs, err = iolog.ReadCSV(f); return }},
	} {
		f, err := os.Open(filepath.Join(dir, part.file))
		if err != nil {
			return nil, err
		}
		err = part.read(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return core.NewDataset(jobs, tasks, events, ioRecs)
}
