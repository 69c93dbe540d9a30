package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/raslog"
)

// FilterRule defines the similarity notion used to coalesce a burst of
// near-duplicate RAS events into one incident (the paper's
// "similarity-based event filtering").
//
// Two consecutive events are similar when all enabled conditions hold:
//   - temporal: they are at most Window apart;
//   - spatial: their locations share an ancestor at Spatial level
//     (LevelSystem disables the spatial condition);
//   - message: same message ID when SameMessage, else same category.
type FilterRule struct {
	Window      time.Duration
	Spatial     machine.Level
	SameMessage bool
}

// DefaultFilterRule is the paper-style rule: 20-minute window, midplane
// spatial scope, message-ID similarity.
func DefaultFilterRule() FilterRule {
	return FilterRule{Window: 20 * time.Minute, Spatial: machine.LevelMidplane, SameMessage: true}
}

// Validate checks the rule.
func (r FilterRule) Validate() error {
	if r.Window <= 0 {
		return fmt.Errorf("core: filter window must be positive")
	}
	if r.Spatial < machine.LevelSystem || r.Spatial > machine.LevelNode {
		return fmt.Errorf("core: bad spatial level %v", r.Spatial)
	}
	return nil
}

// Incident is one coalesced failure event.
type Incident struct {
	First, Last time.Time
	Events      int
	Loc         machine.Location // representative location (first event)
	MsgID       string
	Cat         raslog.Category
	JobIDs      []int64 // distinct nonzero job ids attributed to the burst
}

// filterKey is the similarity identity of an event: events with equal keys
// coalesce when they are close enough in time.
type filterKey struct {
	msg string
	cat raslog.Category
	loc machine.Location
}

// keyOf computes the similarity key of one event. It depends on the rule's
// Spatial and SameMessage settings but NOT on the Window, which is what
// makes keys shareable across the windows of a sweep.
func keyOf(e *raslog.Event, rule FilterRule) filterKey {
	k := filterKey{}
	if rule.SameMessage {
		k.msg = e.MsgID
	} else {
		k.cat = e.Cat
	}
	if rule.Spatial > machine.LevelSystem {
		if e.Loc.Level() >= rule.Spatial {
			anc, err := e.Loc.Ancestor(rule.Spatial)
			if err == nil {
				k.loc = anc
			} else {
				k.loc = e.Loc
			}
		} else {
			k.loc = e.Loc
		}
	}
	return k
}

// severityIndex lists the indices of the events with the given severity.
func severityIndex(events []raslog.Event, sev raslog.Severity) []int {
	var idx []int
	for i := range events {
		if events[i].Sev == sev {
			idx = append(idx, i)
		}
	}
	return idx
}

// internedKeys is a severity index's similarity keys interned to dense ids
// in first-appearance order. Keys depend only on the rule's Spatial and
// SameMessage settings — not the window — so one interning pass serves
// every window, and coalescing can track open incidents in a flat array
// indexed by key id instead of a map keyed by (string, Location) structs.
type internedKeys struct {
	ids   []int32 // ids[n] is the key id of events[idx[n]]
	nKeys int
}

// internKeys interns the similarity key of every indexed event.
func internKeys(events []raslog.Event, idx []int, rule FilterRule) internedKeys {
	seen := make(map[filterKey]int32, 64)
	ids := make([]int32, len(idx))
	for n, i := range idx {
		k := keyOf(&events[i], rule)
		id, ok := seen[k]
		if !ok {
			id = int32(len(seen))
			seen[k] = id
		}
		ids[n] = id
	}
	return internedKeys{ids: ids, nKeys: len(seen)}
}

// coalesce folds the indexed events into incidents for one window. An
// event extends the open incident of its key when it is at most window
// after that incident's last event, and opens a new incident otherwise.
// The open-incident table is a flat array indexed by key id, and job
// attributions deduplicate by scanning the incident's (short) JobIDs list.
// Incidents come out in the order of their first events, so a time-ordered
// index yields incidents in non-decreasing First order.
//
//mira:hotpath
func coalesce(events []raslog.Event, idx []int, ik internedKeys, window time.Duration) []Incident {
	if len(idx) == 0 {
		return nil // no events, no incidents: nil, as a fold that never appends
	}
	// Counting pre-pass: replay just the open/extend decision (key id plus
	// window check against the last event of the key) to size the incident
	// slice, so the fill pass does not grow or copy it. The zero time.Time
	// makes the first event of every key read as "gap larger than any
	// window", i.e. a new incident; only events within a window of the zero
	// time can undercount, which costs an append growth, never a result.
	lastOf := make([]time.Time, ik.nKeys)
	count := 0
	for n, i := range idx {
		e := &events[i]
		if e.Time.Sub(lastOf[ik.ids[n]]) > window {
			count++
		}
		lastOf[ik.ids[n]] = e.Time
	}
	open := make([]int32, ik.nKeys)
	for i := range open {
		open[i] = -1
	}
	incidents := make([]Incident, 0, count)
	for n, i := range idx {
		e := &events[i]
		if oi := open[ik.ids[n]]; oi >= 0 && e.Time.Sub(incidents[oi].Last) <= window {
			in := &incidents[oi]
			in.Last = e.Time
			in.Events++
			if e.JobID != 0 {
				dup := false
				for _, id := range in.JobIDs {
					if id == e.JobID {
						dup = true
						break
					}
				}
				if !dup {
					in.JobIDs = append(in.JobIDs, e.JobID)
				}
			}
			continue
		}
		incidents = append(incidents, Incident{
			First: e.Time, Last: e.Time, Events: 1,
			Loc: e.Loc, MsgID: e.MsgID, Cat: e.Cat,
		})
		if e.JobID != 0 {
			incidents[len(incidents)-1].JobIDs = []int64{e.JobID}
		}
		open[ik.ids[n]] = int32(len(incidents) - 1)
	}
	return incidents
}

// FilterBySeverity coalesces the events of one severity into incidents
// under the rule — FATAL bursts become interruption incidents, WARN bursts
// become the precursor signals the lead-time analysis mines. Events must be
// sorted by time. It is the raw-stream entry point; analyses over a Dataset
// use FilterFatal/FilterWarn, which reuse its severity views and keys.
func FilterBySeverity(events []raslog.Event, sev raslog.Severity, rule FilterRule) ([]Incident, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	idx := severityIndex(events, sev)
	return coalesce(events, idx, internKeys(events, idx, rule), rule.Window), nil
}

// keyConfig identifies one memoized key interning: the severity view and
// the rule settings a similarity key depends on (not the window).
type keyConfig struct {
	sev         raslog.Severity
	spatial     machine.Level
	sameMessage bool
}

// keyMemo is one key configuration's interned keys, built once.
type keyMemo struct {
	once sync.Once
	ik   internedKeys
}

// filterKeys returns the interned similarity keys of the dataset's sev view
// (idx) under the rule's key configuration, interning them on first use.
// Every window and every later call with the same configuration reuses
// them.
func (d *Dataset) filterKeys(sev raslog.Severity, idx []int, rule FilterRule) internedKeys {
	kc := keyConfig{sev: sev, spatial: rule.Spatial, sameMessage: rule.SameMessage}
	d.keyMu.Lock()
	m := d.keyMemo[kc]
	if m == nil {
		if d.keyMemo == nil {
			d.keyMemo = make(map[keyConfig]*keyMemo)
		}
		m = &keyMemo{}
		d.keyMemo[kc] = m
	}
	d.keyMu.Unlock()
	m.once.Do(func() { m.ik = internKeys(d.Events, idx, rule) })
	return m.ik
}

// filterView coalesces one of the dataset's severity views under the rule.
func (d *Dataset) filterView(sev raslog.Severity, idx []int, rule FilterRule) ([]Incident, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	return coalesce(d.Events, idx, d.filterKeys(sev, idx, rule), rule.Window), nil
}

// FilterFatal coalesces the dataset's FATAL view into incidents. It skips
// the severity scan via the view built at NewDataset time and the key
// interning via the dataset's key memo, so repeated calls — and calls with
// other windows — pay only the array-indexed coalesce.
func (d *Dataset) FilterFatal(rule FilterRule) ([]Incident, error) {
	return d.filterView(raslog.Fatal, d.fatalIdx, rule)
}

// FilterWarn coalesces the dataset's WARN view into incidents.
func (d *Dataset) FilterWarn(rule FilterRule) ([]Incident, error) {
	return d.filterView(raslog.Warn, d.warnIdx, rule)
}

// SweepPoint is one point of the filtering sensitivity sweep.
type SweepPoint struct {
	Window    time.Duration
	Incidents int
	Reduction float64 // 1 − incidents/raw-fatal-count
}

// FilterSweep runs FilterFatal across the given windows (holding the rest
// of the rule fixed) and reports the incident counts — the knee of this
// curve is how the paper picks its filtering window. The window grid is
// evaluated on at most workers goroutines (≤ 0 means GOMAXPROCS). Each
// window's coalesce is independent and writes its SweepPoint to the slot
// of its window index, so the sweep is identical for any worker count.
//
// Similarity keys do not depend on the window, so every window shares the
// FATAL view's memoized keys and pays only the array-indexed coalesce.
func (d *Dataset) FilterSweep(base FilterRule, windows []time.Duration, workers int) ([]SweepPoint, error) {
	for _, w := range windows {
		rule := base
		rule.Window = w
		if err := rule.Validate(); err != nil {
			return nil, err
		}
	}
	raw := len(d.fatalIdx)
	ik := d.filterKeys(raslog.Fatal, d.fatalIdx, base)
	out := make([]SweepPoint, len(windows))
	err := par.ForEach(context.Background(), len(windows), workers, func(i int) error {
		incidents := coalesce(d.Events, d.fatalIdx, ik, windows[i])
		p := SweepPoint{Window: windows[i], Incidents: len(incidents)}
		if raw > 0 {
			p.Reduction = 1 - float64(len(incidents))/float64(raw)
		}
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// KneeWindow picks the knee of a sweep: the first window after which
// doubling the window reduces the incident count by less than relTol.
// The sweep must be ordered by increasing window.
func KneeWindow(sweep []SweepPoint, relTol float64) (time.Duration, bool) {
	if len(sweep) < 2 {
		return 0, false
	}
	for i := 1; i < len(sweep); i++ {
		prev, cur := sweep[i-1].Incidents, sweep[i].Incidents
		if prev == 0 {
			return sweep[i-1].Window, true
		}
		if float64(prev-cur)/float64(prev) < relTol {
			return sweep[i-1].Window, true
		}
	}
	return sweep[len(sweep)-1].Window, false
}
