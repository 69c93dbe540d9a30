package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins the example's output, byte for byte, against
// testdata/failure_triage.golden. The golden is edited only by a change that means
// to alter the output.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "failure_triage.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/failure_triage.golden:\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
