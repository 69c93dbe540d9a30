package core

import (
	"fmt"
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

// LeadTimeSweep evaluates the precursor analysis over the dataset's
// pre-filtered FATAL incidents and WARN bursts (both from its filters, in
// First order) for several lookback windows at once. The
// nearest-preceding-burst search and the per-burst next-incident gap are
// lookback-independent, so they are computed once and each result is just a
// different thresholding — results are identical to one call per option.
// All options must share a spatial level.
//
// Incidents are grouped into per-location runs by the dense id of their
// first event's ancestor at the level (the event view's rack and midplane
// columns, machine.Location.DenseIndex below a midplane), with a counting
// sort that keeps each run in First order. Coverage and precision are then
// merges of the FATAL and WARN runs of each location.
func (d *Dataset) LeadTimeSweep(fatals, warns Incidents, opts []LeadTimeOptions) ([]*LeadTimeResult, error) {
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
	// Lookbacks floored to seconds: exact for the whole-second gaps below.
	lookback := make([]int64, len(norm))
	for i, opt := range norm {
		lookback[i] = int64(opt.Lookback / time.Second)
	}
	fatalRuns, warnRuns, nRuns := d.locationRuns(fatals, warns, norm[0].Level)
	rs := make([]*LeadTimeResult, len(norm))
	for i := range rs {
		rs[i] = &LeadTimeResult{WarnBursts: len(warnRuns.first)}
	}

	// Coverage: the nearest WARN burst starting before the incident does.
	// Incidents are visited in First order, so each location's burst cursor
	// only advances.
	cursor := make([]int32, nRuns)
	copy(cursor, warnRuns.start[:nRuns])
	for i, f := range fatals.First {
		loc := fatalRuns.loc[i]
		if loc < 0 {
			continue
		}
		c, end := cursor[loc], warnRuns.start[loc+1]
		for c < end && warnRuns.first[c] < f {
			c++
		}
		cursor[loc] = c
		var lead int64
		preceded := c > warnRuns.start[loc]
		if preceded {
			lead = f - warnRuns.first[c-1]
		}
		for oi, r := range rs {
			r.Incidents++
			if preceded && lead > 0 && lead <= lookback[oi] {
				r.WithPrecursor++
				r.LeadHours = append(r.LeadHours, (time.Duration(lead) * time.Second).Hours())
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
	for loc := 0; loc < nRuns; loc++ {
		c, end := fatalRuns.start[loc], fatalRuns.start[loc+1]
		for _, b := range warnRuns.first[warnRuns.start[loc]:warnRuns.start[loc+1]] {
			for c < end && fatalRuns.first[c] <= b {
				c++
			}
			if c == end {
				break
			}
			gap := fatalRuns.first[c] - b
			for oi, r := range rs {
				if gap <= lookback[oi] {
					r.TrueAlarms++
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

// locRuns is an incident set grouped by location: loc[i] is the run of
// incident i's location (-1 when the location is coarser than the level),
// and the First times of run r's incidents are first[start[r]:start[r+1]],
// in incident order.
type locRuns struct {
	loc   []int32
	start []int32
	first []int64
}

// locationRuns groups two incident sets by the dense id, at the level, of
// their first event's location. Both sets number their runs through one
// table from dense id to run, so run r is the same location in each; runs
// exist only for locations that occur, so the cost beyond clearing the
// table follows the incident counts, not machine.DenseCount.
func (d *Dataset) locationRuns(fatals, warns Incidents, level machine.Level) (f, w locRuns, runs int) {
	v := d.EventView()
	runOf := make([]int32, machine.DenseCount(level)) // run+1; 0 = none yet
	locate := func(in Incidents) []int32 {
		loc := make([]int32, in.Len())
		for i, row := range in.Row {
			id := int32(-1)
			switch level {
			case machine.LevelRack:
				id = v.RackID[row]
			case machine.LevelMidplane:
				id = v.MidplaneID[row]
			default:
				if dense, ok := locOfCode(v.LocCode[row]).DenseIndex(level); ok {
					id = int32(dense)
				}
			}
			if id < 0 {
				loc[i] = -1
				continue
			}
			if runOf[id] == 0 {
				runs++
				runOf[id] = int32(runs)
			}
			loc[i] = runOf[id] - 1
		}
		return loc
	}
	fl, wl := locate(fatals), locate(warns)
	return groupRuns(fatals.First, fl, runs), groupRuns(warns.First, wl, runs), runs
}

// groupRuns lays out the First times of the incidents by run with a
// stable counting sort.
func groupRuns(first []int64, loc []int32, runs int) locRuns {
	r := locRuns{loc: loc, start: make([]int32, runs+1)}
	for _, l := range loc {
		if l >= 0 {
			r.start[l+1]++
		}
	}
	for l := 0; l < runs; l++ {
		r.start[l+1] += r.start[l]
	}
	next := make([]int32, runs)
	copy(next, r.start[:runs])
	r.first = make([]int64, r.start[runs])
	for i, l := range loc {
		if l >= 0 {
			r.first[next[l]] = first[i]
			next[l]++
		}
	}
	return r
}
