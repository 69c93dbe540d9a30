package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/machine"
	"repro/internal/stats"
)

// LeadTimeOptions tunes the WARN→FATAL precursor analysis.
type LeadTimeOptions struct {
	// Lookback is how far before a FATAL incident precursor WARN bursts
	// are searched for (and how far ahead a WARN burst is credited as a
	// true alarm).
	Lookback time.Duration
	// Level is the spatial matching granularity (default midplane).
	Level machine.Level
}

// DefaultLeadTimeOptions matches a practical operator setting: precursors
// within 12 hours on the same midplane.
func DefaultLeadTimeOptions() LeadTimeOptions {
	return LeadTimeOptions{Lookback: 12 * time.Hour, Level: machine.LevelMidplane}
}

// LeadTimeResult quantifies how predictable FATAL incidents are from WARN
// bursts on the same hardware — the correlation-between-events analysis,
// framed as a precursor detector.
type LeadTimeResult struct {
	Incidents     int // localizable FATAL incidents after filtering
	WithPrecursor int // incidents preceded by ≥1 WARN burst in the window
	Coverage      float64
	// LeadHours are the lead times (hours) from the nearest preceding WARN
	// burst to each covered incident.
	LeadHours   []float64
	MedianLeadH float64

	WarnBursts int // WARN bursts at localizable locations
	TrueAlarms int // bursts followed by a FATAL incident within Lookback
	Precision  float64
}

// LeadTimeSweep evaluates the precursor analysis over pre-filtered FATAL
// incidents and WARN bursts for several lookback windows at once. The
// nearest-preceding-burst search and the per-burst next-incident gap are
// lookback-independent, so they are computed once and each result is just a
// different thresholding — results are identical to one call per option
// but the location indexing happens once. All options must share a
// spatial level.
func LeadTimeSweep(fatals, warns []Incident, opts []LeadTimeOptions) ([]*LeadTimeResult, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("core: lead time sweep needs ≥1 option")
	}
	norm := make([]LeadTimeOptions, len(opts))
	for i, opt := range opts {
		if opt.Lookback <= 0 || opt.Level < machine.LevelRack || opt.Level > machine.LevelNode {
			opt = DefaultLeadTimeOptions()
		}
		norm[i] = opt
		if opt.Level != norm[0].Level {
			return nil, fmt.Errorf("core: lead time sweep options mix levels %v and %v", norm[0].Level, opt.Level)
		}
	}
	level := norm[0].Level
	locKey := func(loc machine.Location) (machine.Location, bool) {
		if loc.Level() < level {
			return machine.Location{}, false
		}
		anc, err := loc.Ancestor(level)
		if err != nil {
			return machine.Location{}, false
		}
		return anc, true
	}
	// Index WARN bursts by location, sorted by time.
	warnsAt := map[machine.Location][]Incident{}
	localWarns := 0
	for _, w := range warns {
		key, ok := locKey(w.Loc)
		if !ok {
			continue
		}
		warnsAt[key] = append(warnsAt[key], w)
		localWarns++
	}
	rs := make([]*LeadTimeResult, len(norm))
	for i := range rs {
		rs[i] = &LeadTimeResult{WarnBursts: localWarns}
	}

	// Coverage: nearest WARN burst starting before the incident does. The
	// burst index is lookback-independent; each option only thresholds the
	// lead differently.
	fatalsAt := map[machine.Location][]Incident{}
	for _, f := range fatals {
		key, ok := locKey(f.Loc)
		if !ok {
			continue
		}
		fatalsAt[key] = append(fatalsAt[key], f)
		bursts := warnsAt[key]
		// Bursts are time-sorted (events were); find the latest with
		// First < f.First.
		idx := sort.Search(len(bursts), func(i int) bool {
			return !bursts[i].First.Before(f.First)
		})
		var lead time.Duration
		if idx > 0 {
			lead = f.First.Sub(bursts[idx-1].First)
		}
		for oi, opt := range norm {
			rs[oi].Incidents++
			if idx > 0 && lead > 0 && lead <= opt.Lookback {
				rs[oi].WithPrecursor++
				rs[oi].LeadHours = append(rs[oi].LeadHours, lead.Hours())
			}
		}
	}
	for _, res := range rs {
		if res.Incidents > 0 {
			res.Coverage = float64(res.WithPrecursor) / float64(res.Incidents)
		}
		if len(res.LeadHours) > 0 {
			med, err := stats.Quantile(res.LeadHours, 0.5)
			if err != nil {
				return nil, fmt.Errorf("core: lead time median: %w", err)
			}
			res.MedianLeadH = med
		}
	}

	// Precision: does a WARN burst actually precede a FATAL here? The gap to
	// the next incident is lookback-independent too.
	for key, bursts := range warnsAt {
		incidents := fatalsAt[key]
		for _, b := range bursts {
			idx := sort.Search(len(incidents), func(i int) bool {
				return incidents[i].First.After(b.First)
			})
			if idx >= len(incidents) {
				continue
			}
			gap := incidents[idx].First.Sub(b.First)
			for oi, opt := range norm {
				if gap <= opt.Lookback {
					rs[oi].TrueAlarms++
				}
			}
		}
	}
	for _, res := range rs {
		if res.WarnBursts > 0 {
			res.Precision = float64(res.TrueAlarms) / float64(res.WarnBursts)
		}
	}
	return rs, nil
}
