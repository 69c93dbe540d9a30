package raslog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

func streamEvents(t *testing.T, n int) []Event {
	t.Helper()
	loc, err := machine.ParseLocation("R05-M1-N02-J07")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC)
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		sev := Info
		switch i % 3 {
		case 1:
			sev = Warn
		case 2:
			sev = Fatal
		}
		events = append(events, Event{
			RecID: int64(i + 1), MsgID: "00140001", Comp: CompCNK, Cat: CatSoftware,
			Sev: sev, Time: base.Add(time.Duration(i) * time.Minute), Loc: loc,
			Count: 1, Message: "application RAS event",
		})
	}
	return events
}

func TestScannerMatchesSlurp(t *testing.T) {
	events := streamEvents(t, 100)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	slurped, err := ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Event
	for sc.Scan() {
		streamed = append(streamed, sc.Event())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(slurped, streamed) {
		t.Error("scanner and slurp disagree")
	}
	// Scan after EOF stays false.
	if sc.Scan() {
		t.Error("Scan after EOF returned true")
	}
}

func TestScannerErrors(t *testing.T) {
	if _, err := NewScanner(strings.NewReader("bogus,header\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := NewScanner(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	h := "rec_id,msg_id,component,category,severity,time_unix,location,job_id,count,message"
	sc, err := NewScanner(strings.NewReader(h + "\n1,m,CNK,Software,NOPE,1,MIR,0,1,x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Scan() {
		t.Error("bad row scanned successfully")
	}
	if sc.Err() == nil {
		t.Error("error not reported")
	}
	if sc.Scan() {
		t.Error("Scan after error returned true")
	}
}
