package core

import (
	"context"
	"fmt"
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

// key is the similarity identity of an open incident.
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

// keyedEvents is the window-independent part of a filter pass: the
// severity-selected event indices (time order) and their similarity keys.
// Computing it once and coalescing per window turns a sweep's key work from
// O(windows × events) into O(events).
type keyedEvents struct {
	events []raslog.Event
	idx    []int       // indices into events, severity-filtered, time order
	keys   []filterKey // keys[i] belongs to events[idx[i]]
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

// precomputeKeys computes the similarity key of every indexed event.
func precomputeKeys(events []raslog.Event, idx []int, rule FilterRule) keyedEvents {
	keys := make([]filterKey, len(idx))
	for n, i := range idx {
		keys[n] = keyOf(&events[i], rule)
	}
	return keyedEvents{events: events, idx: idx, keys: keys}
}

// coalesce folds the keyed events into incidents for one window. The loop
// body is the original FilterBySeverity coalescing logic, unchanged, so the
// output is bit-identical to the pre-index implementation.
func coalesce(ke keyedEvents, window time.Duration) []Incident {
	open := map[filterKey]int{} // key → index into incidents
	// jobSeen deduplicates job attributions in O(1) per event: one map for
	// the whole pass, keyed by (incident index, job id), replacing the old
	// per-event linear scan of Incident.JobIDs (O(n·m) on bursts that touch
	// many jobs).
	type incidentJob struct {
		incident int
		job      int64
	}
	jobSeen := map[incidentJob]struct{}{}
	var incidents []Incident
	for n, i := range ke.idx {
		e := &ke.events[i]
		k := ke.keys[n]
		if idx, ok := open[k]; ok && e.Time.Sub(incidents[idx].Last) <= window {
			in := &incidents[idx]
			in.Last = e.Time
			in.Events++
			if e.JobID != 0 {
				if _, dup := jobSeen[incidentJob{idx, e.JobID}]; !dup {
					jobSeen[incidentJob{idx, e.JobID}] = struct{}{}
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
			jobSeen[incidentJob{len(incidents) - 1, e.JobID}] = struct{}{}
		}
		open[k] = len(incidents) - 1
	}
	return incidents
}

// FilterFatal coalesces the FATAL events of the stream into incidents under
// the rule. Events must be sorted by time (Dataset guarantees this).
func FilterFatal(events []raslog.Event, rule FilterRule) ([]Incident, error) {
	return FilterBySeverity(events, raslog.Fatal, rule)
}

// FilterBySeverity coalesces the events of one severity into incidents
// under the rule — FATAL bursts become interruption incidents, WARN bursts
// become the precursor signals the lead-time analysis mines. Events must be
// sorted by time.
func FilterBySeverity(events []raslog.Event, sev raslog.Severity, rule FilterRule) ([]Incident, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	return coalesce(precomputeKeys(events, severityIndex(events, sev), rule), rule.Window), nil
}

// filterIndexed coalesces an already severity-partitioned index list (e.g.
// a Dataset's FATAL view) so Dataset-level analyses skip the severity scan.
func filterIndexed(events []raslog.Event, idx []int, rule FilterRule) ([]Incident, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	return coalesce(precomputeKeys(events, idx, rule), rule.Window), nil
}

// FilterFatal coalesces the dataset's FATAL view into incidents, reusing the
// severity partition built at NewDataset time.
func (d *Dataset) FilterFatal(rule FilterRule) ([]Incident, error) {
	return filterIndexed(d.Events, d.fatalIdx, rule)
}

// FilterWarn coalesces the dataset's WARN view into incidents.
func (d *Dataset) FilterWarn(rule FilterRule) ([]Incident, error) {
	return filterIndexed(d.Events, d.warnIdx, rule)
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

// defaultKeyConfig reports whether the rule's key-relevant settings match
// DefaultFilterRule — the configuration the dataset caches interned keys
// for.
func defaultKeyConfig(rule FilterRule) bool {
	def := DefaultFilterRule()
	return rule.Spatial == def.Spatial && rule.SameMessage == def.SameMessage
}

// coalesceInterned is coalesce with pre-interned keys: the open-incident
// table becomes a flat array indexed by key id, and job attributions
// deduplicate by scanning the incident's (short) JobIDs list. Decisions,
// append order and output are identical to coalesce — only the bookkeeping
// representation changes.
//
//mira:hotpath
func coalesceInterned(events []raslog.Event, idx []int, ik internedKeys, window time.Duration) []Incident {
	// Counting pre-pass: replay just the open/extend decision (key id plus
	// window check against the last event of the key) to size the incident
	// slice exactly, so the fill pass never grows or copies it. The zero
	// time.Time makes the first event of every key read as "gap larger than
	// any window", i.e. a new incident, matching the map version's miss.
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

// FilterFatalCached is FilterFatal through the dataset's interned-key cache:
// the first call interns the FATAL view's similarity keys (for the default
// rule's key configuration), later calls — and calls with other windows —
// only pay the array-indexed coalesce. Output is identical to FilterFatal.
// Rules with a non-default key configuration fall back to the plain pass.
func (d *Dataset) FilterFatalCached(rule FilterRule) ([]Incident, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	if !defaultKeyConfig(rule) {
		return d.FilterFatal(rule)
	}
	d.fatalKeyOnce.Do(func() {
		d.fatalKeys = internKeys(d.Events, d.fatalIdx, rule)
	})
	return coalesceInterned(d.Events, d.fatalIdx, d.fatalKeys, rule.Window), nil
}

// FilterWarnCached is the WARN-severity counterpart of FilterFatalCached.
func (d *Dataset) FilterWarnCached(rule FilterRule) ([]Incident, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	if !defaultKeyConfig(rule) {
		return d.FilterWarn(rule)
	}
	d.warnKeyOnce.Do(func() {
		d.warnKeys = internKeys(d.Events, d.warnIdx, rule)
	})
	return coalesceInterned(d.Events, d.warnIdx, d.warnKeys, rule.Window), nil
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
// window's filter pass is independent and writes its SweepPoint to the slot
// of its window index, so the sweep is identical for any worker count.
//
// Similarity keys depend on the rule's Spatial/SameMessage settings but not
// on the window, so the sweep interns them once and each window only pays
// for the array-indexed coalesce: O(events) key work total instead of
// O(windows × events), and no per-window hash table.
func FilterSweep(events []raslog.Event, base FilterRule, windows []time.Duration, workers int) ([]SweepPoint, error) {
	idx := severityIndex(events, raslog.Fatal)
	raw := len(idx)
	ik := internKeys(events, idx, base)
	out := make([]SweepPoint, len(windows))
	err := par.ForEach(context.Background(), len(windows), workers, func(i int) error {
		rule := base
		rule.Window = windows[i]
		if err := rule.Validate(); err != nil {
			return err
		}
		incidents := coalesceInterned(events, idx, ik, rule.Window)
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
