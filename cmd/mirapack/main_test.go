package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// TestVerifyCatchesForeignSection appends a section of an id the format
// does not define, with a valid checksum: a load verifies the section's
// checksum but reads nothing from it, so the image loads, and -verify
// must still reject it by re-encoding.
func TestVerifyCatchesForeignSection(t *testing.T) {
	cfg := sim.SmallConfig()
	cfg.Days = 5
	c, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	image := pack.Marshal(d)
	if _, err := verifyImage(image); err != nil {
		t.Fatalf("fresh snapshot: %v", err)
	}

	// Rebuild the image with one more table entry (24 bytes after the
	// 16-byte header) and an 8-byte foreign payload at the end.
	count := binary.LittleEndian.Uint32(image[12:])
	tableEnd := 16 + 24*int(count)
	foreign := []byte("FOREIGN!")
	out := append([]byte(nil), image[:tableEnd]...)
	binary.LittleEndian.PutUint32(out[12:], count+1)
	for i := 0; i < int(count); i++ {
		off := binary.LittleEndian.Uint64(out[16+24*i+8:])
		binary.LittleEndian.PutUint64(out[16+24*i+8:], off+24)
	}
	out = binary.LittleEndian.AppendUint32(out, 99)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(foreign))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(image)+24))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(foreign)))
	out = append(append(out, image[tableEnd:]...), foreign...)

	if _, err := pack.Unmarshal(out); err != nil {
		t.Fatalf("image with a foreign section does not load: %v", err)
	}
	if _, err := verifyImage(out); err == nil || !strings.Contains(err.Error(), "does not re-encode") {
		t.Fatalf("foreign section: error %v, want a re-encode mismatch", err)
	}
}

// TestConvertRejectsNegativeCount converts a corpus directory whose
// ras.csv holds an event count of -1, which no pack reader accepts: the
// conversion must fail with an error naming the event and leave no
// corpus.mirapack (nor a temporary file) behind.
func TestConvertRejectsNegativeCount(t *testing.T) {
	cfg := sim.SmallConfig()
	cfg.Days = 5
	c, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Events[3].Count = -1
	dir := t.TempDir()
	for name, write := range map[string]func(*os.File) error{
		"jobs.csv":  func(f *os.File) error { return joblog.WriteCSV(f, c.Jobs) },
		"tasks.csv": func(f *os.File) error { return tasklog.WriteCSV(f, c.Tasks) },
		"ras.csv":   func(f *os.File) error { return raslog.WriteCSV(f, c.Events) },
		"io.csv":    func(f *os.File) error { return iolog.WriteCSV(f, c.IO) },
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	err = run([]string{"-in", dir})
	if want := fmt.Sprintf("core: event %d (events row ", c.Events[3].RecID); err == nil ||
		!strings.HasPrefix(err.Error(), want) || !strings.HasSuffix(err.Error(), "): event count -1 out of range [0, 2^31)") {
		t.Fatalf("error %v, want one naming event %d and its count", err, c.Events[3].RecID)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("%d files in the corpus directory after a failed conversion, want the 4 CSVs", len(entries))
	}
}
