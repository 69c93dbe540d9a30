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
// already-filtered incidents, letting callers reuse one filtering pass for
// several windows.
func SpatialCorrelationIncidents(incidents []Incident, window time.Duration) (*SpatialCorrResult, error) {
	if window <= 0 {
		return nil, fmt.Errorf("core: spatial correlation window must be positive")
	}
	type point struct {
		at  time.Time
		mid int
	}
	var pts []point
	for i := range incidents {
		mid, ok := machine.TorusMidplaneID(incidents[i].Loc)
		if !ok {
			continue
		}
		pts = append(pts, point{at: incidents[i].First, mid: mid})
	}
	if len(pts) < 3 {
		return nil, fmt.Errorf("core: only %d localizable incidents", len(pts))
	}
	res := &SpatialCorrResult{Incidents: len(pts)}
	var sumClose, sumAll float64
	var nbrClose, nbrAll int
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			dist, err := machine.TorusDistance(pts[i].mid, pts[j].mid)
			if err != nil {
				return nil, err
			}
			res.AllPairs++
			sumAll += float64(dist)
			if dist <= 1 {
				nbrAll++
			}
			gap := pts[j].at.Sub(pts[i].at)
			if gap < 0 {
				gap = -gap
			}
			if gap <= window {
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
