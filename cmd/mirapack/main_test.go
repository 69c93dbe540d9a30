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

// TestVerifyCatchesStaleIndexes re-signs a snapshot's indexes section with
// one byte changed: a load checks the section's checksum but does not
// decode it, so the image loads, and -verify must still reject it by
// re-encoding.
func TestVerifyCatchesStaleIndexes(t *testing.T) {
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

	info, err := pack.Inspect(image)
	if err != nil {
		t.Fatal(err)
	}
	stale := append([]byte(nil), image...)
	for i, s := range info.Sections {
		if s.Name != "indexes" {
			continue
		}
		// Table entry: id, crc32, offset, length after the 16-byte header.
		entry := stale[16+24*i:]
		off, n := binary.LittleEndian.Uint64(entry[8:]), binary.LittleEndian.Uint64(entry[16:])
		stale[off+n-1] ^= 0x02 // the last varint byte: the window end
		binary.LittleEndian.PutUint32(entry[4:], crc32.ChecksumIEEE(stale[off:off+n]))
	}
	if _, err := pack.Unmarshal(stale); err != nil {
		t.Fatalf("re-signed indexes section does not load: %v", err)
	}
	if _, err := verifyImage(stale); err == nil || !strings.Contains(err.Error(), "does not re-encode") {
		t.Fatalf("stale indexes section: error %v, want a re-encode mismatch", err)
	}
}
