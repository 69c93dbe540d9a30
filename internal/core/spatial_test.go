package core

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/raslog"
)

// pairScenario: two FATAL bursts minutes apart on torus-adjacent midplanes,
// plus a distant third burst a week later.
func pairScenario(t *testing.T) []raslog.Event {
	t.Helper()
	base := time.Date(2019, 2, 1, 0, 0, 0, 0, time.UTC)
	neighbors, err := machine.TorusNeighbors(0)
	if err != nil {
		t.Fatal(err)
	}
	locA, err := machine.MidplaneByID(0)
	if err != nil {
		t.Fatal(err)
	}
	locB, err := machine.MidplaneByID(neighbors[0])
	if err != nil {
		t.Fatal(err)
	}
	// Pick a midplane far from both for the late burst.
	far := 0
	for id := 0; id < machine.TotalMidplanes; id++ {
		d0, _ := machine.TorusDistance(0, id)
		d1, _ := machine.TorusDistance(neighbors[0], id)
		if d0 >= 3 && d1 >= 3 {
			far = id
			break
		}
	}
	locC, err := machine.MidplaneByID(far)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id int64, at time.Time, loc machine.Location) raslog.Event {
		return raslog.Event{
			RecID: id, MsgID: "00140004", Comp: raslog.CompMMCS, Cat: raslog.CatSoftware,
			Sev: raslog.Fatal, Time: at, Loc: loc, Count: 1, Message: "x",
		}
	}
	return []raslog.Event{
		mk(1, base, locA),
		mk(2, base.Add(10*time.Minute), locB),
		mk(3, base.Add(7*24*time.Hour), locC),
	}
}

// spatialCorrelation filters the dataset's FATAL view under the rule and
// runs the torus-correlation analysis over the incidents.
func spatialCorrelation(d *Dataset, rule FilterRule, window time.Duration) (*SpatialCorrResult, error) {
	incidents, err := d.FilterFatal(rule)
	if err != nil {
		return nil, err
	}
	return d.SpatialCorrelationIncidents(incidents, window)
}

func TestSpatialCorrelationScenario(t *testing.T) {
	events := pairScenario(t)
	jobs := testJobsForEvents(t, events)
	d, err := NewDataset(jobs, nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := spatialCorrelation(d, DefaultFilterRule(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incidents != 3 || res.AllPairs != 3 {
		t.Fatalf("incidents=%d pairs=%d, want 3/3", res.Incidents, res.AllPairs)
	}
	if res.ClosePairs != 1 {
		t.Fatalf("close pairs = %d, want 1", res.ClosePairs)
	}
	if res.MeanDistClose != 1 {
		t.Errorf("close mean dist = %v, want 1", res.MeanDistClose)
	}
	if res.NeighborShareClose != 1 {
		t.Errorf("close neighbor share = %v, want 1", res.NeighborShareClose)
	}
	if !res.Correlated {
		t.Error("correlation not detected")
	}
	if res.MeanDistAll <= res.MeanDistClose {
		t.Errorf("baseline %v not above close %v", res.MeanDistAll, res.MeanDistClose)
	}
}

func TestSpatialCorrelationErrors(t *testing.T) {
	events := pairScenario(t)
	jobs := testJobsForEvents(t, events)
	d, err := NewDataset(jobs, nil, events, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spatialCorrelation(d, DefaultFilterRule(), 0); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := spatialCorrelation(d, FilterRule{}, time.Hour); err == nil {
		t.Error("bad rule accepted")
	}
	// Too few localizable incidents.
	short, err := NewDataset(jobs, nil, events[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spatialCorrelation(short, DefaultFilterRule(), time.Hour); err == nil {
		t.Error("2-incident stream accepted")
	}
}

// TestTorusMidplaneColumnMatchesLocation pins E21's column torus position
// — torusMidplane over the event view's midplane and rack ids — to
// machine.TorusMidplaneID for every location at system, rack, midplane,
// node-board and node level.
func TestTorusMidplaneColumnMatchesLocation(t *testing.T) {
	locs := []machine.Location{machine.System()}
	for r := 0; r < machine.NumRacks; r++ {
		rack, err := machine.Rack(r)
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, rack)
		for m := 0; m < machine.MidplanesPerRack; m++ {
			locs = append(locs, mustMidplane(t, r, m))
			for n := 0; n < machine.NodeBoardsPerMid; n++ {
				board, err := machine.NodeBoard(r, m, n)
				if err != nil {
					t.Fatal(err)
				}
				locs = append(locs, board)
				for j := 0; j < machine.NodesPerBoard; j++ {
					node, err := machine.Node(r, m, n, j)
					if err != nil {
						t.Fatal(err)
					}
					locs = append(locs, node)
				}
			}
		}
	}
	for _, loc := range locs {
		want, wantOK := machine.TorusMidplaneID(loc)
		got, gotOK := torusMidplane(LocIDs(loc))
		if got != want || gotOK != wantOK {
			t.Fatalf("%v (%v): column torus midplane %d/%v, TorusMidplaneID %d/%v", loc, loc.Level(), got, gotOK, want, wantOK)
		}
	}
}
