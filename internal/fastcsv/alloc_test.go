package fastcsv

// Allocation pins for the //mira:hotpath functions of this package.
// The hotalloc analyzer (internal/lint) keeps allocating constructs out
// of these bodies statically; these tests pin the same property
// dynamically, so a regression fails even if it slips past the
// analyzer's construct list.

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// TestWriterAllocFree pins the writer hot path — sep, String, Int,
// Int64, Float, EndRecord — to zero steady-state allocations.
func TestWriterAllocFree(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	row := func() {
		w.String("plain field")
		w.String(`needs "quoting", badly`)
		w.Int(12345)
		w.Int64(-9876543210)
		w.Float(3.14159, 6)
		w.EndRecord()
	}
	// Warm-up grows the destination buffer once.
	for i := 0; i < 4; i++ {
		row()
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		buf.Reset()
		row()
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("writer hot path allocates %v per row, want 0", n)
	}
}

// TestConvertAllocFree pins the numeric parsers and the warmed interner
// to zero allocations per field.
func TestConvertAllocFree(t *testing.T) {
	in := NewInterner()
	vocab := [][]byte{[]byte("R00-M1-N8"), []byte("DDR"), []byte("FATAL")}
	for _, v := range vocab {
		in.Intern(v) // warm the vocabulary
	}
	num := []byte("-1234567")
	fnum := []byte("6.125")
	var isink int64
	var fsink float64
	var ssink string
	if n := testing.AllocsPerRun(100, func() {
		v64, err := Int64(num)
		if err != nil {
			t.Fatal(err)
		}
		vi, err := Int(num)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Float(fnum)
		if err != nil {
			t.Fatal(err)
		}
		isink += v64 + int64(vi)
		fsink += f
		ssink = in.Intern(vocab[0])
	}); n != 0 {
		t.Errorf("field converters allocate %v per field set, want 0", n)
	}
	_, _, _ = isink, fsink, ssink
}

// TestReaderAmortizedAllocs pins the reader hot path — readLine and
// Read — to setup-only allocations: a full multi-thousand-row pass may
// allocate the reader, its line buffer, and the field slice, but
// nothing per row.
func TestReaderAmortizedAllocs(t *testing.T) {
	var sb strings.Builder
	const rows = 2000
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,user%d,a RAS message body with some text,%d.5\n", i, i%7, i*3)
	}
	data := sb.String()
	src := strings.NewReader(data)
	allocs := testing.AllocsPerRun(5, func() {
		src.Reset(data)
		r := NewReader(src)
		for {
			_, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	const setupBudget = 16
	if allocs > setupBudget {
		t.Errorf("full %d-row pass allocates %v, want setup-only (≤ %d)", rows, allocs, setupBudget)
	}
}
