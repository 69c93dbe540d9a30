package core

import (
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
)

// precursorScenario builds a stream with one WARN burst followed by a FATAL
// burst at the same midplane, plus an unrelated WARN burst elsewhere.
func precursorScenario(t *testing.T) []raslog.Event {
	t.Helper()
	base := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	var events []raslog.Event
	id := int64(0)
	add := func(at time.Time, sev raslog.Severity, rack int, msg string) {
		id++
		loc, err := machine.Node(rack, 0, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, raslog.Event{
			RecID: id, MsgID: msg, Comp: raslog.CompDDR, Cat: raslog.CatMemory,
			Sev: sev, Time: at, Loc: loc, Count: 1, Message: "x",
		})
	}
	// Precursor WARN burst on rack 3, two hours before its FATAL.
	for i := 0; i < 4; i++ {
		add(base.Add(time.Duration(i)*time.Minute), raslog.Warn, 3, "00040002")
	}
	// FATAL burst on rack 3.
	for i := 0; i < 6; i++ {
		add(base.Add(2*time.Hour+time.Duration(i)*time.Minute), raslog.Fatal, 3, "00040003")
	}
	// Unrelated WARN burst on rack 40 (false alarm).
	for i := 0; i < 3; i++ {
		add(base.Add(time.Hour+time.Duration(i)*time.Minute), raslog.Warn, 40, "00040002")
	}
	// FATAL on rack 20 with no precursor.
	add(base.Add(30*time.Hour), raslog.Fatal, 20, "00040003")
	return events
}

func TestLeadTimeScenario(t *testing.T) {
	events := precursorScenario(t)
	jobs := testJobsForEvents(t, events)
	d, err := NewDataset(jobs, nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := leadTime(t, d, DefaultFilterRule(), DefaultLeadTimeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Incidents != 2 {
		t.Fatalf("incidents = %d, want 2", res.Incidents)
	}
	if res.WithPrecursor != 1 {
		t.Fatalf("with precursor = %d, want 1", res.WithPrecursor)
	}
	if res.Coverage != 0.5 {
		t.Errorf("coverage = %v, want 0.5", res.Coverage)
	}
	if len(res.LeadHours) != 1 || res.LeadHours[0] < 1.9 || res.LeadHours[0] > 2.1 {
		t.Errorf("lead hours = %v, want ≈2", res.LeadHours)
	}
	if res.WarnBursts != 2 {
		t.Errorf("warn bursts = %d, want 2", res.WarnBursts)
	}
	if res.TrueAlarms != 1 {
		t.Errorf("true alarms = %d, want 1", res.TrueAlarms)
	}
	if res.Precision != 0.5 {
		t.Errorf("precision = %v, want 0.5", res.Precision)
	}
}

func TestLeadTimeLookbackTooShort(t *testing.T) {
	events := precursorScenario(t)
	jobs := testJobsForEvents(t, events)
	d, err := NewDataset(jobs, nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultLeadTimeOptions()
	opt.Lookback = 30 * time.Minute // precursor is 2h before: missed
	res, err := leadTime(t, d, DefaultFilterRule(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithPrecursor != 0 {
		t.Errorf("short lookback found %d precursors", res.WithPrecursor)
	}
	if res.TrueAlarms != 0 {
		t.Errorf("short lookback credited %d alarms", res.TrueAlarms)
	}
}

func TestLeadTimeDefaultsOnBadOptions(t *testing.T) {
	events := precursorScenario(t)
	jobs := testJobsForEvents(t, events)
	d, err := NewDataset(jobs, nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := leadTime(t, d, DefaultFilterRule(), LeadTimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incidents != 2 {
		t.Errorf("bad options not defaulted: %+v", res)
	}
}

func TestLeadTimeOnCorpus(t *testing.T) {
	d, _ := dataset(t)
	res, err := leadTime(t, d, DefaultFilterRule(), DefaultLeadTimeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Incidents == 0 {
		t.Fatal("no incidents")
	}
	// The generator emits precursors for ~65% of incidents within 6h;
	// with a 12h lookback coverage must clearly exceed chance.
	if res.Coverage < 0.4 {
		t.Errorf("coverage = %v, want ≥ 0.4", res.Coverage)
	}
	if res.MedianLeadH <= 0 || res.MedianLeadH > 12 {
		t.Errorf("median lead = %v h", res.MedianLeadH)
	}
	// Precision is low by construction (noise WARNs dominate) but nonzero.
	if res.Precision <= 0 || res.Precision > 0.5 {
		t.Errorf("precision = %v", res.Precision)
	}
}

// testJobsForEvents fabricates a minimal job list so NewDataset accepts the
// stream (the lead-time analysis itself does not use jobs).
// leadTime runs the precursor analysis for one option the way the
// experiments do: the dataset's FATAL incidents and WARN bursts under the
// rule, then LeadTimeSweep.
func leadTime(t *testing.T, d *Dataset, rule FilterRule, opt LeadTimeOptions) (*LeadTimeResult, error) {
	t.Helper()
	fatals, err := d.FilterFatal(rule)
	if err != nil {
		return nil, err
	}
	warns, err := d.FilterWarn(rule)
	if err != nil {
		return nil, err
	}
	rs, err := d.LeadTimeSweep(fatals, warns, []LeadTimeOptions{opt})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

func testJobsForEvents(t *testing.T, events []raslog.Event) []joblog.Job {
	t.Helper()
	base := events[0].Time
	return []joblog.Job{{
		ID: 1, User: "u", Project: "p", Queue: "q",
		Submit: base, Start: base, End: base.Add(time.Hour),
		WalltimeReq: 2 * time.Hour, Nodes: 512, RanksPerNode: 16, NumTasks: 1,
	}}
}
