package core

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/raslog"
)

// serviceScenario: two actions on one midplane (2h, 1h), one unmatched
// begin, one unmatched end elsewhere.
func serviceScenario(t *testing.T) []raslog.Event {
	t.Helper()
	base := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	locA := mustMidplane(t, 3, 0)
	locB := mustMidplane(t, 40, 1)
	locC := mustMidplane(t, 10, 0)
	mk := func(id int64, msg string, at time.Time, loc machine.Location) raslog.Event {
		return raslog.Event{
			RecID: id, MsgID: msg, Comp: raslog.CompMMCS, Cat: raslog.CatInfra,
			Sev: raslog.Info, Time: at, Loc: loc, Count: 1, Message: "svc",
		}
	}
	return []raslog.Event{
		mk(1, raslog.MsgServiceBegin, base, locA),
		mk(2, raslog.MsgServiceEnd, base.Add(2*time.Hour), locA),
		mk(3, raslog.MsgServiceBegin, base.Add(5*time.Hour), locA),
		mk(4, raslog.MsgServiceEnd, base.Add(6*time.Hour), locA),
		mk(5, raslog.MsgServiceBegin, base.Add(8*time.Hour), locB), // never ends
		mk(6, raslog.MsgServiceEnd, base.Add(9*time.Hour), locC),   // never began
	}
}

func TestAvailabilityScenario(t *testing.T) {
	events := serviceScenario(t)
	jobs := testJobsForEvents(t, events)
	d, err := NewDataset(jobs, nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if res.ServiceActions != 2 {
		t.Fatalf("actions = %d, want 2", res.ServiceActions)
	}
	if res.UnmatchedBegins != 1 {
		t.Errorf("unmatched begins = %d, want 1", res.UnmatchedBegins)
	}
	if res.DownMidplaneHours != 3 {
		t.Errorf("down hours = %v, want 3", res.DownMidplaneHours)
	}
	if res.MeanRepairH != 1.5 || res.MedianRepairH != 1.5 {
		t.Errorf("repair stats = %v/%v, want 1.5/1.5", res.MeanRepairH, res.MedianRepairH)
	}
	if res.Availability <= 0.99 || res.Availability >= 1 {
		t.Errorf("availability = %v", res.Availability)
	}
	if res.BestFit.Dist != nil {
		t.Error("best fit should be skipped below 30 samples")
	}
}

func TestAvailabilityNoActions(t *testing.T) {
	events := precursorScenario(t) // no service messages
	jobs := testJobsForEvents(t, events)
	d, err := NewDataset(jobs, nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Availability(); err == nil {
		t.Error("stream without service actions accepted")
	}
}

func TestAvailabilityOnCorpus(t *testing.T) {
	d, c := dataset(t)
	res, err := d.Availability()
	if err != nil {
		t.Fatal(err)
	}
	if res.ServiceActions == 0 || res.UnmatchedBegins > res.ServiceActions {
		t.Fatalf("degenerate: %+v", res)
	}
	// The log-derived downtime matches the generator's ground truth
	// within the window-truncation slack.
	if res.DownMidplaneHours > c.Truth.RepairMidplaneHours*1.01 ||
		res.DownMidplaneHours < c.Truth.RepairMidplaneHours*0.85 {
		t.Errorf("downtime %v vs truth %v", res.DownMidplaneHours, c.Truth.RepairMidplaneHours)
	}
	if res.Availability < 0.99 || res.Availability >= 1 {
		t.Errorf("availability = %v", res.Availability)
	}
	// Injected lognormal(median 4h): median recovered within 30%.
	if res.MedianRepairH < 2.8 || res.MedianRepairH > 5.2 {
		t.Errorf("median repair %vh, want ≈4", res.MedianRepairH)
	}
}

// mustMidplane returns midplane Rr-Mm, failing the test on invalid input.
func mustMidplane(t *testing.T, r, m int) machine.Location {
	t.Helper()
	loc, err := machine.Midplane(r, m)
	if err != nil {
		t.Fatal(err)
	}
	return loc
}
