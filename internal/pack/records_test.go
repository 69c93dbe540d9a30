package pack_test

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/sim"
)

// TestEventRecordsRoundTrip is the record-rebuild oracle through the pack:
// a loaded dataset's EventRecords must deep-equal the time-sorted records
// it was written from, for the generated corpus, for hand-made rows at
// the column edges and for a corpus without events. The pack stores the
// zero Location as the system's code, so that row comes back as
// machine.System(), as the pack decode always returned it.
func TestEventRecordsRoundTrip(t *testing.T) {
	c, err := sim.Generate(sim.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	node, err := machine.Node(47, 1, 15, 31)
	if err != nil {
		t.Fatal(err)
	}
	edge := []raslog.Event{
		{RecID: math.MaxInt64, MsgID: "00040003", Comp: raslog.CompDDR, Cat: raslog.CatMemory, Sev: raslog.Fatal,
			Time: t0.Add(time.Hour), Loc: node, JobID: math.MaxInt64, Count: math.MaxInt32, Message: "largest count"},
		{RecID: math.MinInt64, MsgID: "", Sev: raslog.Info,
			Time: t0, Loc: machine.Location{}, JobID: math.MinInt64, Count: 0},
		{RecID: 0, MsgID: "00240001", Comp: raslog.CompMMCS, Cat: raslog.CatInfra, Sev: raslog.Warn,
			Time: time.Date(2500, 6, 1, 12, 0, 0, 0, time.UTC), Loc: machine.System(), JobID: 0, Count: 1},
	}
	jobs := []joblog.Job{{ID: 1, User: "u", Project: "p", Queue: "q", Submit: t0, Start: t0, End: t0.Add(time.Hour)}}
	for _, tc := range []struct {
		name   string
		jobs   []joblog.Job
		events []raslog.Event
	}{
		{"generated", c.Jobs, c.Events},
		{"edge rows", jobs, edge},
		{"no events", jobs, nil},
	} {
		d, err := core.NewDataset(tc.jobs, nil, tc.events, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		back, err := pack.Unmarshal(pack.Marshal(d))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := append([]raslog.Event(nil), tc.events...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time.Before(want[j].Time) })
		for i := range want {
			if want[i].Loc == (machine.Location{}) {
				want[i].Loc = machine.System()
			}
		}
		if got := back.EventRecords(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pack-loaded records differ from the written ones", tc.name)
		}
		if tc.name == "generated" && !reflect.DeepEqual(back.EventView(), d.EventView()) {
			t.Fatalf("%s: pack-decoded event view differs from the built one", tc.name)
		}
	}
}
