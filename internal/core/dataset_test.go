package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// TestNewDatasetFromViewsEquivalence pins NewDatasetFromViews over separately
// built views to NewDataset, derived indexes included, and the span both
// derive from the view columns to the min/max walk over the records. The
// comparison uses a freshly built dataset, not the shared one: other tests
// populate the shared dataset's lazy caches (interned filter keys,
// selection indexes), which a fresh build leaves empty.
func TestNewDatasetFromViewsEquivalence(t *testing.T) {
	_, c := dataset(t)
	d, err := NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	back, err := NewDatasetFromViews(d.Jobs, d.Tasks, d.IO, BuildJobView(d.Jobs), BuildEventView(d.EventRecords()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatal("dataset built over separate views differs from NewDataset's")
	}
	start, end := d.Jobs[0].Submit, d.Jobs[0].End
	for _, j := range d.Jobs {
		if j.Submit.Before(start) {
			start = j.Submit
		}
		if j.End.After(end) {
			end = j.End
		}
	}
	for _, e := range d.EventRecords() {
		if e.Time.Before(start) {
			start = e.Time
		} else if e.Time.After(end) {
			end = e.Time
		}
	}
	if s, e := d.Span(); !s.Equal(start) || !e.Equal(end) {
		t.Fatalf("span %v–%v, the record walk gives %v–%v", s, e, start, end)
	}
}

// TestNewDatasetFromViewsRejectsMismatch feeds the constructor views that
// do not describe the records or whose columns disagree on the row count,
// no jobs, duplicate job ids and events out of time order.
func TestNewDatasetFromViewsRejectsMismatch(t *testing.T) {
	d, _ := dataset(t)
	jv, ev := d.JobView(), d.EventView()
	short := *ev
	short.Count = short.Count[:ev.N-1]
	for _, tc := range []struct {
		name string
		jobs []joblog.Job
		jv   *scan.JobView
		ev   *scan.EventView
	}{
		{"no jobs", nil, BuildJobView(nil), ev},
		{"job view one row long", d.Jobs, &scan.JobView{N: jv.N + 1}, ev},
		{"event column one row short", d.Jobs, jv, &short},
		{"no job view", d.Jobs, nil, ev},
		{"no event view", d.Jobs, jv, nil},
	} {
		if _, err := NewDatasetFromViews(tc.jobs, d.Tasks, d.IO, tc.jv, tc.ev); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	jobs := append(append([]joblog.Job(nil), d.Jobs...), d.Jobs[0])
	if _, err := NewDatasetFromViews(jobs, d.Tasks, d.IO, BuildJobView(jobs), ev); err == nil {
		t.Error("duplicate job id accepted")
	}

	// Two events of different times swapped: the stream steps back once.
	events := d.EventRecords()
	k := len(events) / 2
	for !events[k+1].Time.After(events[k].Time) {
		k++
	}
	events[k], events[k+1] = events[k+1], events[k]
	if _, err := NewDatasetFromViews(d.Jobs, d.Tasks, d.IO, jv, BuildEventView(events)); err == nil {
		t.Error("events out of time order accepted")
	}
	// NewDataset puts the same events in order instead.
	if _, err := NewDataset(d.Jobs, d.Tasks, events, d.IO); err != nil {
		t.Errorf("NewDataset over out-of-order events: %v", err)
	}
}

// TestSpanWithInvertedJob pins the span of a corpus whose only job ends
// (5 s) before it is submitted (10 s): the job seeds an inverted window,
// and an event between the two (7 s) lowers the start only, as the
// else-if walk cohortSpan reproduces does, so the window stays inverted.
func TestSpanWithInvertedJob(t *testing.T) {
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	jobs := []joblog.Job{{ID: 1, Submit: t0.Add(10 * time.Second), Start: t0, End: t0.Add(5 * time.Second)}}
	events := []raslog.Event{{RecID: 1, Time: t0.Add(7 * time.Second), Sev: raslog.Info}}
	d, err := NewDataset(jobs, nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, e := d.Span(); !s.Equal(t0.Add(7*time.Second)) || !e.Equal(t0.Add(5*time.Second)) {
		t.Fatalf("span %v–%v, want 7 s–5 s past %v", s, e, t0)
	}
}
