package core

import (
	"math/rand"
	"reflect"
	"sort"
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
	jobs := d.JobRecords()
	back, err := NewDatasetFromViews(d.IO, BuildJobView(jobs), BuildTaskView(d.TaskRecords()), BuildEventView(d.EventRecords()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Fatal("dataset built over separate views differs from NewDataset's")
	}
	start, end := jobs[0].Submit, jobs[0].End
	for _, j := range jobs {
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

// TestNewDatasetFromViewsRejectsMismatch feeds the constructor views whose
// columns disagree on the row count, missing views, no jobs, duplicate job
// ids and events out of time order.
func TestNewDatasetFromViewsRejectsMismatch(t *testing.T) {
	d, _ := dataset(t)
	jv, tv, ev := d.JobView(), d.TaskView(), d.EventView()
	short := *ev
	short.Count = short.Count[:ev.N-1]
	shortJobs := *jv
	shortJobs.NumTasks = shortJobs.NumTasks[:jv.N-1]
	shortTasks := *tv
	shortTasks.Block = shortTasks.Block[:tv.N-1]
	for _, tc := range []struct {
		name string
		jv   *scan.JobView
		tv   *scan.TaskView
		ev   *scan.EventView
	}{
		{"no jobs", BuildJobView(nil), tv, ev},
		{"job view one row long", &scan.JobView{N: jv.N + 1}, tv, ev},
		{"job column one row short", &shortJobs, tv, ev},
		{"task column one row short", jv, &shortTasks, ev},
		{"event column one row short", jv, tv, &short},
		{"no job view", nil, tv, ev},
		{"no task view", jv, nil, ev},
		{"no event view", jv, tv, nil},
	} {
		if _, err := NewDatasetFromViews(d.IO, tc.jv, tc.tv, tc.ev); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	jobs := d.JobRecords()
	jobs = append(jobs, jobs[0])
	if _, err := NewDatasetFromViews(d.IO, BuildJobView(jobs), tv, ev); err == nil {
		t.Error("duplicate job id accepted")
	}

	// Two events of different times swapped: the stream steps back once.
	events := d.EventRecords()
	k := len(events) / 2
	for !events[k+1].Time.After(events[k].Time) {
		k++
	}
	events[k], events[k+1] = events[k+1], events[k]
	if _, err := NewDatasetFromViews(d.IO, jv, tv, BuildEventView(events)); err == nil {
		t.Error("events out of time order accepted")
	}
	// NewDataset puts the same events in order instead.
	if _, err := NewDataset(d.JobRecords(), d.TaskRecords(), events, d.IO); err != nil {
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

// TestSpanMatchesEventWalk pins NewDatasetFromViews' window, which
// widens the jobs' window by the first and the last event only, to the
// else-if walk over every event it stands for: on random job windows,
// inverted ones (a job that ends before it is submitted) included, and
// random event times in order, zero to four events.
func TestSpanMatchesEventWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(sec int64) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	for trial := 0; trial < 2000; trial++ {
		submit, end := rng.Int63n(100), rng.Int63n(100)
		jobs := []joblog.Job{{ID: 1, Submit: at(submit), Start: at(submit), End: at(end)}}
		times := make([]int64, rng.Intn(5))
		for i := range times {
			times[i] = rng.Int63n(120) - 10
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		var events []raslog.Event
		for i, sec := range times {
			events = append(events, raslog.Event{RecID: int64(i), Time: at(sec), Sev: raslog.Info})
		}
		d, err := NewDataset(jobs, nil, events, nil)
		if err != nil {
			t.Fatal(err)
		}
		start, stop := submit, end
		for _, sec := range times {
			if sec < start {
				start = sec
			} else if sec > stop {
				stop = sec
			}
		}
		if gotStart, gotEnd := d.Span(); !gotStart.Equal(at(start)) || !gotEnd.Equal(at(stop)) {
			t.Fatalf("job [%d, %d], events %v: span [%v, %v], walk gives [%v, %v]", submit, end, times, gotStart, gotEnd, at(start), at(stop))
		}
	}
}
