package raslog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

func sampleEvent(t testing.TB) Event {
	t.Helper()
	loc, err := machine.ParseLocation("R17-M0-N06-J11")
	if err != nil {
		t.Fatal(err)
	}
	return Event{
		RecID: 1, MsgID: "00040003", Comp: CompDDR, Cat: CatMemory, Sev: Fatal,
		Time: time.Date(2014, 7, 1, 3, 4, 5, 0, time.UTC), Loc: loc,
		JobID: 99, Message: "DDR uncorrectable memory error", Count: 2,
	}
}

func TestSeverityRoundTrip(t *testing.T) {
	for _, s := range []Severity{Info, Warn, Fatal} {
		back, err := ParseSeverity(s.String())
		if err != nil || back != s {
			t.Errorf("severity round trip %v: %v, %v", s, back, err)
		}
	}
	if _, err := ParseSeverity("BOGUS"); err == nil {
		t.Error("bogus severity accepted")
	}
	if got := Severity(42).String(); got != "Severity(42)" {
		t.Errorf("unknown severity string = %q", got)
	}
}

func TestCatalogConsistency(t *testing.T) {
	cat := Catalog()
	if len(cat) < 20 {
		t.Fatalf("catalog too small: %d", len(cat))
	}
	seen := map[string]bool{}
	fatalCount := 0
	categories := map[Category]bool{}
	for _, e := range cat {
		if seen[e.MsgID] {
			t.Errorf("duplicate msg id %s", e.MsgID)
		}
		seen[e.MsgID] = true
		if e.Message == "" {
			t.Errorf("%s: empty message", e.MsgID)
		}
		if e.Sev == Fatal {
			fatalCount++
		}
		categories[e.Cat] = true
		if e.LocLevel < machine.LevelSystem || e.LocLevel > machine.LevelNode {
			t.Errorf("%s: bad loc level %v", e.MsgID, e.LocLevel)
		}
	}
	if fatalCount < 8 {
		t.Errorf("catalog has only %d FATAL messages", fatalCount)
	}
	if len(categories) != 8 {
		t.Errorf("catalog covers %d categories, want 8", len(categories))
	}
	byID := CatalogByID()
	if len(byID) != len(cat) {
		t.Errorf("CatalogByID size %d != %d", len(byID), len(cat))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	e1 := sampleEvent(t)
	e2 := e1
	e2.RecID = 2
	e2.Sev = Info
	e2.Loc = machine.System()
	e2.JobID = 0
	e2.Message = `quoted "message", with comma`
	events := []Event{e1, e2}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", events, back)
	}
}

func TestReadCSVErrors(t *testing.T) {
	h := "rec_id,msg_id,component,category,severity,time_unix,location,job_id,count,message"
	cases := map[string]string{
		"empty":        "",
		"bad header":   "a,b\n",
		"bad severity": h + "\n1,m,CNK,Software,NOPE,1,MIR,0,1,x\n",
		"bad location": h + "\n1,m,CNK,Software,INFO,1,R99,0,1,x\n",
		"bad time":     h + "\n1,m,CNK,Software,INFO,zz,MIR,0,1,x\n",
		"bad count":    h + "\n1,m,CNK,Software,INFO,1,MIR,0,zz,x\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestEmptyLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Errorf("empty log round trip produced %d events", len(back))
	}
}
