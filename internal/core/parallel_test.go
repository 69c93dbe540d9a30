package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/raslog"
)

// TestFilterSweepParallelMatchesSerial checks that the window grid evaluated
// concurrently yields exactly the serial sweep: each window's pass is
// independent and its SweepPoint lands in the window's slot.
func TestFilterSweepParallelMatchesSerial(t *testing.T) {
	var events []raslog.Event
	msgs := []string{"00040003", "00061001", "0008000A"}
	for i := 0; i < 12; i++ {
		start := filterT0.Add(time.Duration(i) * 37 * time.Minute)
		events = append(events, burst(t, start, 8, 45*time.Second, (i*7)%48, msgs[i%len(msgs)], int64(i))...)
	}
	windows := []time.Duration{
		30 * time.Second, time.Minute, 5 * time.Minute, 20 * time.Minute,
		time.Hour, 6 * time.Hour,
	}
	d, err := NewDataset(testJobsForEvents(t, events), nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.FilterSweep(DefaultFilterRule(), windows, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 8} {
		got, err := d.FilterSweep(DefaultFilterRule(), windows, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: sweep differs:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}
