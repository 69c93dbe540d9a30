package main

import (
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pack"
	"repro/internal/sim"
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
