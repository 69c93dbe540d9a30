package raslog

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/machine"
)

// legacyWriteCSV is a verbatim copy of the encoding/csv-based encoder this
// package shipped before the fastcsv migration. The golden tests pin the new
// codec to its exact byte output.
func legacyWriteCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("raslog: write header: %w", err)
	}
	row := make([]string, len(header))
	for i := range events {
		e := &events[i]
		row[0] = strconv.FormatInt(e.RecID, 10)
		row[1] = e.MsgID
		row[2] = string(e.Comp)
		row[3] = string(e.Cat)
		row[4] = e.Sev.String()
		row[5] = strconv.FormatInt(e.Time.Unix(), 10)
		row[6] = e.Loc.String()
		row[7] = strconv.FormatInt(e.JobID, 10)
		row[8] = strconv.Itoa(e.Count)
		row[9] = e.Message
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("raslog: write event %d: %w", e.RecID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// goldenEvents exercises quoting-sensitive messages alongside plain rows.
func goldenEvents(t testing.TB) []Event {
	t.Helper()
	base := sampleEvent(t)
	loc2, err := machine.ParseLocation("R00-M1-N00-J00")
	if err != nil {
		t.Fatal(err)
	}
	e2 := base
	e2.RecID = 2
	e2.Loc = loc2
	e2.Sev = Warn
	e2.Message = `correctable error, count="high"` + "\nsecond line"
	e3 := base
	e3.RecID = 3
	e3.Time = time.Date(2017, 12, 31, 23, 59, 59, 0, time.UTC)
	e3.Message = " leading space"
	return []Event{base, e2, e3}
}

func TestWriteCSVMatchesLegacy(t *testing.T) {
	events := goldenEvents(t)
	var oldBuf, newBuf bytes.Buffer
	if err := legacyWriteCSV(&oldBuf, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&newBuf, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oldBuf.Bytes(), newBuf.Bytes()) {
		t.Fatalf("fastcsv encoder output differs from legacy encoding/csv:\n old: %q\n new: %q",
			oldBuf.String(), newBuf.String())
	}
}

func TestReadCSVDecodesLegacyBytes(t *testing.T) {
	events := goldenEvents(t)
	var oldBuf bytes.Buffer
	if err := legacyWriteCSV(&oldBuf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&oldBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("decoding legacy bytes: got %+v, want %+v", got, events)
	}
}
