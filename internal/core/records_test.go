package core

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/sim"
)

// byTime returns a copy of events stably sorted by time, the order a
// Dataset holds them in.
func byTime(events []raslog.Event) []raslog.Event {
	out := append([]raslog.Event(nil), events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// edgeEvents are hand-made rows at the edges of every event column: the
// zero Location next to the system's, record and job ids at the int64
// limits, job id 0, counts at the int32 limits (MaxInt32 is the largest
// the pack allows), the severities and times beyond the years a
// time.Duration spans. They are listed out of time order.
func edgeEvents(t testing.TB) []raslog.Event {
	t.Helper()
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	node, err := machine.Node(47, 1, 15, 31)
	if err != nil {
		t.Fatal(err)
	}
	return []raslog.Event{
		{RecID: math.MaxInt64, MsgID: "00040003", Comp: raslog.CompDDR, Cat: raslog.CatMemory, Sev: raslog.Fatal,
			Time: t0.Add(time.Hour), Loc: node, JobID: math.MaxInt64, Count: math.MaxInt32, Message: "last"},
		{RecID: math.MinInt64, MsgID: "", Comp: "", Cat: "", Sev: 0,
			Time: t0, Loc: machine.Location{}, JobID: math.MinInt64, Count: math.MinInt32, Message: ""},
		{RecID: 0, MsgID: "00240001", Comp: raslog.CompMMCS, Cat: raslog.CatInfra, Sev: raslog.Info,
			Time: t0, Loc: machine.System(), JobID: 0, Count: 0, Message: "same second, listed after"},
		{RecID: 5, MsgID: "00040003", Comp: raslog.CompDDR, Cat: raslog.CatMemory, Sev: math.MaxUint8,
			Time: time.Date(2500, 6, 1, 12, 0, 0, 0, time.UTC), Loc: machine.Location{}, JobID: -1, Count: 1, Message: "last"},
		{RecID: 6, MsgID: "00080003", Comp: raslog.CompND, Cat: raslog.CatNetwork, Sev: raslog.Warn,
			Time: time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC), Loc: node, JobID: 1, Count: 2, Message: "first"},
	}
}

// TestEventRecordsRoundTrip is the record-rebuild oracle: EventRecords
// must deep-equal the time-sorted records the Dataset was built from, for
// the generated corpus, the same corpus read back from CSV, and the
// hand-made edge rows.
func TestEventRecordsRoundTrip(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := raslog.WriteCSV(&csv, c.Events); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := raslog.ReadCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		jobs   []joblog.Job
		events []raslog.Event
	}{
		{"generated", c.Jobs, c.Events},
		{"csv", c.Jobs, fromCSV},
		{"edge rows", c.Jobs[:1], edgeEvents(t)},
	} {
		d, err := NewDataset(tc.jobs, nil, tc.events, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, want := d.EventRecords(), byTime(tc.events)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: %d records back for %d; first difference at row %d:\n got %+v\nwant %+v", tc.name, len(got), len(want), i, got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("%s: %d records back for %d", tc.name, len(got), len(want))
		}
		// EventRecordsAt rebuilds the rows asked for, in the order asked:
		// every third row, last first, so the location cache sees rows out
		// of order.
		var rows []int
		for i := len(want) - 1; i >= 0; i -= 3 {
			rows = append(rows, i)
		}
		at := EventRecordsAt(d.EventView(), rows)
		if len(at) != len(rows) {
			t.Fatalf("%s: EventRecordsAt gave %d records for %d rows", tc.name, len(at), len(rows))
		}
		for n, i := range rows {
			if !reflect.DeepEqual(at[n], want[i]) {
				t.Fatalf("%s: EventRecordsAt row %d:\n got %+v\nwant %+v", tc.name, i, at[n], want[i])
			}
		}
	}
}

// TestNewDatasetRejectsNarrowColumns pins the rejections the event view's
// column widths add: a severity beyond a byte and a count beyond an int32
// are errors naming the record.
func TestNewDatasetRejectsNarrowColumns(t *testing.T) {
	jobs := []joblog.Job{{ID: 1}}
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, e := range []raslog.Event{
		{RecID: 11, Time: t0, Sev: math.MaxUint8 + 1, Count: 1},
		{RecID: 12, Time: t0, Sev: -1, Count: 1},
		{RecID: 13, Time: t0, Sev: raslog.Info, Count: math.MaxInt32 + 1},
		{RecID: 14, Time: t0, Sev: raslog.Info, Count: math.MinInt32 - 1},
	} {
		_, err := NewDataset(jobs, nil, []raslog.Event{e}, nil)
		if err == nil || !strings.Contains(err.Error(), "event "+strconv.FormatInt(e.RecID, 10)+":") {
			t.Errorf("event %+v: error %v, want one naming the event", e, err)
		}
	}
}

// TestDatasetHoldsNoEventRecords walks the type graph of Dataset's fields
// (struct fields, pointer, slice, array and map element types) and fails
// if any of them reaches raslog.Event: the RAS log is resident only as
// its column view.
func TestDatasetHoldsNoEventRecords(t *testing.T) {
	event := reflect.TypeOf(raslog.Event{})
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if ty == event {
			t.Errorf("Dataset reaches raslog.Event through %s", path)
			return
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"{key}")
			walk(ty.Elem(), path+"{}")
		}
	}
	walk(reflect.TypeOf(Dataset{}), "Dataset")
}
