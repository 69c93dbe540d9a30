package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/stats"
)

// LocationCount is the FATAL event (or incident) count at one location.
type LocationCount struct {
	Loc   machine.Location
	Count int
}

// LocalityResult quantifies the spatial concentration of FATAL events —
// the paper's "strong locality" finding (E10).
type LocalityResult struct {
	Level     machine.Level // aggregation granularity (rack or midplane)
	Counts    []LocationCount
	Gini      float64 // concentration across all locations at Level
	Top5Share float64 // share of events on the 5 worst locations
	// UniformTopShare is the expected top-5 share if events were spread
	// uniformly — the baseline the measured share is compared against.
	UniformTopShare float64
	// Localized reports Top5Share ≫ UniformTopShare (ratio ≥ 2).
	Localized bool
}

// locationCounts converts a dense per-location count array (indexed by
// midplane ID or rack index, depending on level) into the sparse
// LocationCount list, omitting zero-count locations.
func locationCounts(level machine.Level, counts []int) ([]LocationCount, error) {
	list := make([]LocationCount, 0, len(counts))
	for id, n := range counts {
		if n == 0 {
			continue
		}
		var loc machine.Location
		var err error
		if level == machine.LevelMidplane {
			loc, err = machine.MidplaneByID(id)
		} else {
			loc, err = machine.Rack(id)
		}
		if err != nil {
			return nil, err
		}
		list = append(list, LocationCount{Loc: loc, Count: n})
	}
	return list, nil
}

// localityFromCounts computes the concentration profile from per-location
// FATAL counts (any order; zero-count locations omitted) at the level.
func localityFromCounts(level machine.Level, counts []LocationCount, total int) (*LocalityResult, error) {
	if total == 0 {
		return nil, fmt.Errorf("core: no FATAL events at or below %v", level)
	}
	slots := machine.NumRacks
	if level == machine.LevelMidplane {
		slots = machine.TotalMidplanes
	}
	// Count descending, then location name ascending. Rack and midplane
	// names are zero-padded decimal codes (Rxx, Rxx-My), so name order is
	// (rack, midplane) order and no name is formatted.
	slices.SortFunc(counts, func(a, b LocationCount) int {
		return cmp.Or(cmp.Compare(b.Count, a.Count),
			cmp.Compare(a.Loc.RackIndex(), b.Loc.RackIndex()),
			cmp.Compare(a.Loc.MidplaneOrdinal(), b.Loc.MidplaneOrdinal()))
	})
	out := &LocalityResult{Level: level, Counts: counts}
	// Include zero-count locations: concentration is relative to all
	// hardware, not just hardware that ever failed.
	vals := make([]float64, 0, slots)
	for _, c := range out.Counts {
		vals = append(vals, float64(c.Count))
	}
	for len(vals) < slots {
		vals = append(vals, 0)
	}
	var err error
	if out.Gini, err = stats.Gini(vals); err != nil {
		return nil, err
	}
	if out.Top5Share, err = stats.TopKShare(vals, 5); err != nil {
		return nil, err
	}
	out.UniformTopShare = 5.0 / float64(slots)
	out.Localized = out.Top5Share >= 2*out.UniformTopShare
	return out, nil
}

// CategoryProfile is the RAS composition table (E9): counts by severity,
// category and component.
type CategoryProfile struct {
	BySeverity  map[raslog.Severity]int
	ByCategory  map[raslog.Category]int
	ByComponent map[raslog.Component]int
	// FatalByCategory restricts the category counts to FATAL events.
	FatalByCategory map[raslog.Category]int
	Total           int
}
