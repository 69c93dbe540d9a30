package core

import (
	"fmt"
	"time"

	"repro/internal/machine"
)

// SpatialCorrResult quantifies whether incidents that are close in time
// are also close on the 5D torus — the propagation signature of cable and
// link-chip failures.
type SpatialCorrResult struct {
	Incidents  int // incidents with a torus position
	ClosePairs int // incident pairs within the time window
	AllPairs   int // all incident pairs (the independence baseline)
	// Mean torus distance of close-in-time pairs vs all pairs.
	MeanDistClose float64
	MeanDistAll   float64
	// NeighborShare is the fraction of pairs at torus distance ≤ 1.
	NeighborShareClose float64
	NeighborShareAll   float64
	// Correlated reports NeighborShareClose ≫ NeighborShareAll (≥ 2×).
	Correlated bool
}

// SpatialCorrelationIncidents runs the torus-correlation analysis over
// already-filtered incidents of the dataset, letting callers reuse one
// filtering pass for several windows. An incident's torus position is the
// TorusMidplaneID of its first event's location, read from the event
// view's midplane and rack columns; pair distances come from
// machine.TorusDistanceTable.
func (d *Dataset) SpatialCorrelationIncidents(incidents Incidents, window time.Duration) (*SpatialCorrResult, error) {
	if window <= 0 {
		return nil, fmt.Errorf("core: spatial correlation window must be positive")
	}
	v := d.EventView()
	at := make([]int64, 0, incidents.Len())
	mid := make([]uint8, 0, incidents.Len())
	for i, row := range incidents.Row {
		m, ok := torusMidplane(v.MidplaneID[row], v.RackID[row])
		if !ok {
			continue
		}
		at = append(at, incidents.First[i])
		mid = append(mid, uint8(m))
	}
	if len(at) < 3 {
		return nil, fmt.Errorf("core: only %d localizable incidents", len(at))
	}
	res := &SpatialCorrResult{Incidents: len(at)}
	dists := machine.TorusDistanceTable()
	win := int64(window / time.Second) // exact for whole-second gaps
	var sumClose, sumAll float64
	var nbrClose, nbrAll int
	for i := 0; i < len(at); i++ {
		row := &dists[mid[i]]
		for j := i + 1; j < len(at); j++ {
			dist := row[mid[j]]
			res.AllPairs++
			sumAll += float64(dist)
			if dist <= 1 {
				nbrAll++
			}
			gap := at[j] - at[i]
			if gap < 0 {
				gap = -gap
			}
			if gap <= win {
				res.ClosePairs++
				sumClose += float64(dist)
				if dist <= 1 {
					nbrClose++
				}
			}
		}
	}
	if res.AllPairs > 0 {
		res.MeanDistAll = sumAll / float64(res.AllPairs)
		res.NeighborShareAll = float64(nbrAll) / float64(res.AllPairs)
	}
	if res.ClosePairs > 0 {
		res.MeanDistClose = sumClose / float64(res.ClosePairs)
		res.NeighborShareClose = float64(nbrClose) / float64(res.ClosePairs)
	}
	res.Correlated = res.ClosePairs > 0 && res.NeighborShareClose >= 2*res.NeighborShareAll
	return res, nil
}

// torusMidplane is machine.TorusMidplaneID over the event view's location
// columns: the midplane id when the location has one, the rack's first
// midplane for a rack-level location, and no position for the system.
func torusMidplane(midplaneID, rackID int32) (int, bool) {
	switch {
	case midplaneID >= 0:
		return int(midplaneID), true
	case rackID >= 0:
		return int(rackID) * machine.MidplanesPerRack, true
	default:
		return 0, false
	}
}
