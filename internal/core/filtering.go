package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/raslog"
	"repro/internal/scan"
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

// Incidents is the filter's output as columns: entry i of every column
// describes incident i, and incidents are in the order of their first
// events. The columns hold no pointers, so a retained incident set costs
// the garbage collector nothing to trace. An incident's location, message
// id and category are those of its first event, read through Row.
type Incidents struct {
	// First and Last are the Unix seconds of the incident's first and last
	// event.
	First, Last []int64
	// Events is the number of events the incident coalesced.
	Events []int32
	// Row is the index of the incident's first event in the events the
	// filter ran on (the raw stream, or the Dataset's event view).
	Row []int32
	// jobStart and jobIDs hold the job ids as one CSR: incident i's ids
	// are jobIDs[jobStart[i]:jobStart[i+1]].
	jobStart []int32
	jobIDs   []int64
}

// Len returns the number of incidents.
func (in Incidents) Len() int { return len(in.First) }

// JobIDs returns the distinct nonzero job ids attributed to incident i, in
// the order their events first appear. The slice aliases the set's
// storage; callers must not modify it.
func (in Incidents) JobIDs(i int) []int64 {
	return in.jobIDs[in.jobStart[i]:in.jobStart[i+1]]
}

// locBase[l] is the first key-location code of level l. Code 0 is the
// key of a rule without a spatial condition; the system, the racks,
// midplanes, node boards and nodes follow, each level's locations at
// their dense index (machine.Location.DenseIndex).
var locBase = func() (b [machine.LevelNode + 1]uint32) {
	next := uint32(1)
	for l := machine.LevelSystem; l <= machine.LevelNode; l++ {
		b[l] = next
		next += uint32(machine.DenseCount(l))
	}
	return b
}()

// keyLocCode returns the code of an event location's part of the
// similarity key under a rule's Spatial level, from the location's view
// code (LocCode): the location's ancestor at that level, or the location
// itself when it is coarser, and code 0 when the rule has no spatial
// condition. Two locations get one code exactly when that part of their
// keys is equal.
func keyLocCode(code int32, spatial machine.Level) uint32 {
	if spatial <= machine.LevelSystem {
		return 0
	}
	loc := locOfCode(code)
	level := min(loc.Level(), spatial)
	id, _ := loc.DenseIndex(level)
	return locBase[level] + uint32(id)
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

// internKeys interns the similarity key of every indexed event of the
// view. A key packs into one uint64: the high half is the dictionary code
// of the event's message id (of its category when the rule compares
// categories), the low half its keyLocCode. Codes of a dictionary that
// lists one string twice are folded onto its first, so two events share
// a key exactly when their strings are equal.
func internKeys(v *scan.EventView, idx []int, rule FilterRule) internedKeys {
	codes, dict := v.MsgID, v.MsgIDs
	if !rule.SameMessage {
		codes, dict = v.CatID, v.Cats
	}
	canon := firstCodes(dict)
	seen := make(map[uint64]int32, 64)
	ids := make([]int32, len(idx))
	for n, i := range idx {
		k := uint64(canon[codes[i]])<<32 | uint64(keyLocCode(v.LocCode[i], rule.Spatial))
		id, ok := seen[k]
		if !ok {
			id = int32(len(seen))
			seen[k] = id
		}
		ids[n] = id
	}
	return internedKeys{ids: ids, nKeys: len(seen)}
}

// firstCodes maps each code of a dictionary to the first code with the
// same string: the identity for the dictionaries the encoder and
// BuildEventView write, which list each string once.
func firstCodes(dict []string) []uint32 {
	first := make(map[string]uint32, len(dict))
	canon := make([]uint32, len(dict))
	for c, s := range dict {
		f, ok := first[s]
		if !ok {
			f = uint32(c)
			first[s] = f
		}
		canon[c] = f
	}
	return canon
}

// countIncidents is the similarity fold: the n-th indexed event, at
// Unix second ts[idx[n]], extends the open incident of its key when it is
// at most window after that incident's last event, and opens a new
// incident otherwise. It returns the number of incidents; when assign is
// non-nil it also records assign[n], the incident of the n-th event, with
// incidents numbered in the order they open. The gap test compares whole
// seconds with the window floored to seconds, which is exact for
// whole-second times and cannot overflow. A key has no open incident until
// its first event (open is -1), so no time value serves as a sentinel.
//
//mira:hotpath
func countIncidents(ts []int64, idx []int, ik internedKeys, window time.Duration, assign []int32) int {
	win := int64(window / time.Second)
	open := make([]int32, ik.nKeys)
	last := make([]int64, ik.nKeys)
	for k := range open {
		open[k] = -1
	}
	count := 0
	for n, i := range idx {
		k, t := ik.ids[n], ts[i]
		if open[k] < 0 || t-last[k] > win {
			open[k] = int32(count)
			count++
		}
		last[k] = t
		if assign != nil {
			assign[n] = open[k]
		}
	}
	return count
}

// coalesce folds the indexed events into incident columns for one window.
// ts and jobIDs are the events' Unix-second and job-id columns. One
// countIncidents pass numbers the incidents and sizes the columns; a fill
// pass then writes them and lays the job-attributed events out as a CSR
// by incident (a counting sort), which a final pass deduplicates in
// place, keeping each id's first appearance. Over a time-ordered index,
// First is non-decreasing.
//
//mira:hotpath
func coalesce(ts, jobIDs []int64, idx []int, ik internedKeys, window time.Duration) Incidents {
	if len(idx) == 0 {
		return Incidents{} // no events, no incidents
	}
	assign := make([]int32, len(idx))
	count := countIncidents(ts, idx, ik, window, assign)
	out := Incidents{
		First:    make([]int64, count),
		Last:     make([]int64, count),
		Events:   make([]int32, count),
		Row:      make([]int32, count),
		jobStart: make([]int32, count+1),
	}
	for n, i := range idx {
		c, t := assign[n], ts[i]
		if out.Events[c] == 0 {
			out.First[c], out.Row[c] = t, int32(i)
		}
		out.Last[c] = t
		out.Events[c]++
		if jobIDs[i] != 0 {
			out.jobStart[c+1]++
		}
	}
	for c := 0; c < count; c++ {
		out.jobStart[c+1] += out.jobStart[c]
	}
	// Counting sort of the attributed events by incident, stable in event
	// order: next[c] is incident c's next free slot.
	next := make([]int32, count)
	copy(next, out.jobStart[:count])
	ids := make([]int64, out.jobStart[count])
	for n, i := range idx {
		if id := jobIDs[i]; id != 0 {
			c := assign[n]
			ids[next[c]] = id
			next[c]++
		}
	}
	// Deduplicate each incident's ids in place; the kept prefix never
	// overtakes the slot being read.
	w, lo := int32(0), int32(0)
	for c := 0; c < count; c++ {
		hi, start := out.jobStart[c+1], w
	ids:
		for r := lo; r < hi; r++ {
			for _, seen := range ids[start:w] {
				if seen == ids[r] {
					continue ids
				}
			}
			ids[w] = ids[r]
			w++
		}
		out.jobStart[c], lo = start, hi
	}
	out.jobStart[count] = w
	out.jobIDs = ids[:w:w]
	return out
}

// FilterBySeverity coalesces the events of one severity into incidents
// under the rule — FATAL bursts become interruption incidents, WARN bursts
// become the precursor signals the lead-time analysis mines. Events must be
// sorted by time and have whole-second times; Row indexes events. It is the
// raw-stream entry point: it builds the columns the filter reads for the
// events of the severity and folds those. Analyses over a Dataset use
// FilterFatal/FilterWarn, which reuse its view, severity views and keys.
func FilterBySeverity(events []raslog.Event, sev raslog.Severity, rule FilterRule) (Incidents, error) {
	if err := rule.Validate(); err != nil {
		return Incidents{}, err
	}
	idx := severityIndex(events, sev)
	v := filterColumns(events, idx, rule.SameMessage)
	rows := make([]int, v.N)
	for n := range rows {
		rows[n] = n
	}
	in := coalesce(v.TimeUnix, v.JobID, rows, internKeys(v, rows, rule), rule.Window)
	for c, n := range in.Row {
		in.Row[c] = int32(idx[n])
	}
	return in, nil
}

// filterColumns builds, for the indexed events, only the event-view
// columns the filter reads: TimeUnix, JobID, LocCode, and MsgID/MsgIDs
// (CatID/Cats when the rule compares categories). Row n is events[idx[n]].
// Consecutive events mostly repeat a message, so the dictionary is
// consulted only when the string changes.
func filterColumns(events []raslog.Event, idx []int, sameMessage bool) *scan.EventView {
	n := len(idx)
	v := &scan.EventView{
		N:        n,
		TimeUnix: make([]int64, n),
		JobID:    make([]int64, n),
		LocCode:  make([]int32, n),
	}
	codes, table := &v.MsgID, &v.MsgIDs
	if !sameMessage {
		codes, table = &v.CatID, &v.Cats
	}
	*codes = make([]int32, n)
	strs := dict{}
	var last string
	code := int32(0)
	for r, i := range idx {
		e := &events[i]
		v.TimeUnix[r] = e.Time.Unix()
		v.JobID[r] = e.JobID
		v.LocCode[r] = locCode(e.Loc)
		s := e.MsgID
		if !sameMessage {
			s = string(e.Cat)
		}
		if r == 0 || s != last {
			code, last = strs.intern(table, s), s
		}
		(*codes)[r] = code
	}
	return v
}

// keyConfig identifies one memoized key interning: the severity view and
// the rule settings a similarity key depends on (not the window).
type keyConfig struct {
	sev         raslog.Severity
	spatial     machine.Level
	sameMessage bool
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
			d.keyMemo = make(map[keyConfig]*par.Memo[internedKeys])
		}
		m = &par.Memo[internedKeys]{}
		d.keyMemo[kc] = m
	}
	d.keyMu.Unlock()
	ik, _ := m.Get(func() (internedKeys, error) { return internKeys(d.eventView, idx, rule), nil })
	return ik
}

// filterView coalesces one of the dataset's severity views under the rule,
// reading event times and job ids from the event view.
func (d *Dataset) filterView(sev raslog.Severity, idx []int, rule FilterRule) (Incidents, error) {
	if err := rule.Validate(); err != nil {
		return Incidents{}, err
	}
	v := d.EventView()
	return coalesce(v.TimeUnix, v.JobID, idx, d.filterKeys(sev, idx, rule), rule.Window), nil
}

// FilterFatal coalesces the dataset's FATAL view into incidents; Row
// indexes the event view's rows. It skips the severity scan via the view
// built at construction and the key interning via the dataset's key memo, so
// repeated calls — and calls with other windows — pay only the
// array-indexed coalesce.
func (d *Dataset) FilterFatal(rule FilterRule) (Incidents, error) {
	return d.filterView(raslog.Fatal, d.fatalIdx, rule)
}

// FilterWarn coalesces the dataset's WARN view into incidents.
func (d *Dataset) FilterWarn(rule FilterRule) (Incidents, error) {
	return d.filterView(raslog.Warn, d.warnIdx, rule)
}

// SweepPoint is one point of the filtering sensitivity sweep.
type SweepPoint struct {
	Window    time.Duration
	Incidents int
	Reduction float64 // 1 − incidents/raw-fatal-count
}

// FilterSweep counts the incidents FilterFatal emits at each of the given
// windows (holding the rest of the rule fixed) — the knee of this curve is
// how the paper picks its filtering window. The window grid is evaluated
// on at most workers goroutines (≤ 0 means GOMAXPROCS). Each window's fold
// is independent and writes its SweepPoint to the slot of its window
// index, so the sweep is identical for any worker count.
//
// Similarity keys do not depend on the window, so every window shares the
// FATAL view's memoized keys. A point needs only the incident count, so
// each window runs the count fold alone and builds no incidents.
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
	ts := d.EventView().TimeUnix
	out := make([]SweepPoint, len(windows))
	err := par.ForEach(context.Background(), len(windows), workers, func(i int) error {
		n := countIncidents(ts, d.fatalIdx, ik, windows[i], nil)
		p := SweepPoint{Window: windows[i], Incidents: n}
		if raw > 0 {
			p.Reduction = 1 - float64(n)/float64(raw)
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
