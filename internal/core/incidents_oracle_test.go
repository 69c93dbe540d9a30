package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/stats"
)

// The row form of the incident filter and of its E16/E21 consumers, kept
// as the oracles of the column path: Incident is the struct one incident
// used to be, referenceFilterBySeverity the fold that built them, and
// referenceLeadTimeSweep and referenceSpatialCorrelation the consumers
// that read them. incidentsDiff compares a column set with reference rows.

// Incident is one coalesced failure event in row form.
type Incident struct {
	First, Last time.Time
	Events      int
	Loc         machine.Location // representative location (first event)
	MsgID       string
	Cat         raslog.Category
	JobIDs      []int64 // distinct nonzero job ids attributed to the burst
}

// filterKey is the similarity identity of an event in the reference fold:
// events with equal keys coalesce when they are close enough in time. The
// production filter packs the same identity into one uint64 (internKeys).
type filterKey struct {
	msg string
	cat raslog.Category
	loc machine.Location
}

// keyOf computes the similarity key of one event, as the struct-keyed
// interning did.
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

// referenceInternKeys is the struct-keyed interning internKeys replaced,
// kept as the oracle: a map keyed by the whole filterKey, ids in
// first-appearance order. internKeys must assign the same ids.
func referenceInternKeys(events []raslog.Event, idx []int, rule FilterRule) internedKeys {
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

// referenceFilterBySeverity is a verbatim copy of the pre-index
// implementation: one pass that re-tests severity and recomputes the
// similarity key for every event, with a map-keyed open-incident table.
// It is the oracle for every production filter entry point: the
// equivalence tests and FuzzFilter pin the interned-key coalesce to its
// exact output.
func referenceFilterBySeverity(events []raslog.Event, sev raslog.Severity, rule FilterRule) ([]Incident, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	open := map[filterKey]int{}
	type incidentJob struct {
		incident int
		job      int64
	}
	jobSeen := map[incidentJob]struct{}{}
	var incidents []Incident
	for i := range events {
		e := &events[i]
		if e.Sev != sev {
			continue
		}
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
		if idx, ok := open[k]; ok && e.Time.Sub(incidents[idx].Last) <= rule.Window {
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
	return incidents, nil
}

// incidentsDiff compares column incidents with reference rows, row for
// row: First and Last in Unix seconds, the event count, the location,
// message id and category read through Row from events (the events the
// columns' filter ran on), and the job ids. Row must name an event at the
// incident's First. It returns "" when they match.
func incidentsDiff(events []raslog.Event, got Incidents, want []Incident) string {
	n := got.Len()
	if n != len(want) {
		return fmt.Sprintf("%d incidents, reference %d", n, len(want))
	}
	if len(got.Last) != n || len(got.Events) != n || len(got.Row) != n {
		return fmt.Sprintf("ragged columns: %d/%d/%d/%d", n, len(got.Last), len(got.Events), len(got.Row))
	}
	for i := range want {
		w := &want[i]
		if got.First[i] != w.First.Unix() || got.Last[i] != w.Last.Unix() || int(got.Events[i]) != w.Events {
			return fmt.Sprintf("incident %d: first/last/events %d/%d/%d, reference %d/%d/%d",
				i, got.First[i], got.Last[i], got.Events[i], w.First.Unix(), w.Last.Unix(), w.Events)
		}
		e := &events[got.Row[i]]
		if e.Time.Unix() != got.First[i] || e.Loc != w.Loc || e.MsgID != w.MsgID || e.Cat != w.Cat {
			return fmt.Sprintf("incident %d: row %d is %v %v %s %s, reference %v %v %s %s",
				i, got.Row[i], e.Time, e.Loc, e.MsgID, e.Cat, w.First, w.Loc, w.MsgID, w.Cat)
		}
		if !slices.Equal(got.JobIDs(i), w.JobIDs) {
			return fmt.Sprintf("incident %d: job ids %v, reference %v", i, got.JobIDs(i), w.JobIDs)
		}
	}
	return ""
}

// referenceLeadTimeSweep is a verbatim copy of the row LeadTimeSweep:
// incidents re-bucketed into maps keyed by machine.Location, one Ancestor
// call per incident, and a binary search per incident and burst. It is
// the oracle of Dataset.LeadTimeSweep.
func referenceLeadTimeSweep(fatals, warns []Incident, opts []LeadTimeOptions) ([]*LeadTimeResult, error) {
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

// referenceSpatialCorrelation is a verbatim copy of the row
// SpatialCorrelationIncidents: one machine.TorusMidplaneID call per
// incident and one machine.TorusDistance call per pair. It is the oracle
// of Dataset.SpatialCorrelationIncidents.
func referenceSpatialCorrelation(incidents []Incident, window time.Duration) (*SpatialCorrResult, error) {
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

// referenceMTTIIntervals is the row MTTI interval series: the positive
// gaps between consecutive incidents' First, in hours, for three or more
// incidents.
func referenceMTTIIntervals(incidents []Incident) []float64 {
	if len(incidents) < 3 {
		return nil
	}
	out := make([]float64, 0, len(incidents)-1)
	for i := 1; i < len(incidents); i++ {
		gap := incidents[i].First.Sub(incidents[i-1].First).Hours()
		if gap > 0 {
			out = append(out, gap)
		}
	}
	return out
}

// referenceInterruptedJobs is the row InterruptedJobs: the distinct job
// ids of the incidents, sorted.
func referenceInterruptedJobs(incidents []Incident) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for i := range incidents {
		for _, id := range incidents[i].JobIDs {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// referencePhaseInterruptions is the row E18 interruption count per life
// phase: each incident falls in the phase its First's offset from the
// dataset's start selects.
func referencePhaseInterruptions(d *Dataset, n int, incidents []Incident) []int {
	start, end := d.Span()
	span := end.Sub(start)
	out := make([]int, n)
	for i := range incidents {
		idx := int(float64(n) * float64(incidents[i].First.Sub(start)) / float64(span))
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		out[idx]++
	}
	return out
}

// The lookbacks and windows checkIncidentConsumers evaluates: each set
// includes one that is not a whole number of seconds, so the column
// paths' floor to seconds is pinned.
var (
	oracleLookbacks = []time.Duration{1500 * time.Millisecond, 90 * time.Minute, 12 * time.Hour}
	oracleWindows   = []time.Duration{time.Hour + 500*time.Millisecond, 24 * time.Hour}
)

// checkIncidentConsumers pins the column E16 and E21 analyses over the
// dataset's incident columns to their row oracles over the matching
// reference rows: LeadTimeSweep at rack, midplane, node-board and node
// level, and SpatialCorrelationIncidents at oracleWindows, errors
// included.
func checkIncidentConsumers(t *testing.T, d *Dataset, fatals, warns Incidents, refFatals, refWarns []Incident) {
	t.Helper()
	for _, level := range []machine.Level{machine.LevelRack, machine.LevelMidplane, machine.LevelNodeBoard, machine.LevelNode} {
		opts := make([]LeadTimeOptions, len(oracleLookbacks))
		for i, lb := range oracleLookbacks {
			opts[i] = LeadTimeOptions{Lookback: lb, Level: level}
		}
		got, err := d.LeadTimeSweep(fatals, warns, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceLeadTimeSweep(refFatals, refWarns, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("LeadTimeSweep at %v differs from the reference:\n got %s\nwant %s", level, fmtLeadTimes(got), fmtLeadTimes(want))
		}
	}
	for _, w := range oracleWindows {
		got, gotErr := d.SpatialCorrelationIncidents(fatals, w)
		want, wantErr := referenceSpatialCorrelation(refFatals, w)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("SpatialCorrelationIncidents window %v: %+v (%v), reference %+v (%v)", w, got, gotErr, want, wantErr)
		}
	}
}

func fmtLeadTimes(rs []*LeadTimeResult) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%+v ", *r)
	}
	return b.String()
}
