package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// equivRules spans the similarity settings the analyses use, plus two
// windows that are not whole seconds: the fold compares whole-second gaps
// with the window floored to seconds, and 999 ms and 1500 ms pin that
// floor (a gap of 0 s and of 1 s is the largest they admit).
func equivRules() []FilterRule {
	var rules []FilterRule
	windows := []time.Duration{999 * time.Millisecond, 1500 * time.Millisecond, time.Minute, 20 * time.Minute, 2 * time.Hour}
	for _, w := range windows {
		for _, sp := range []machine.Level{machine.LevelSystem, machine.LevelRack, machine.LevelMidplane, machine.LevelNode} {
			for _, sm := range []bool{true, false} {
				rules = append(rules, FilterRule{Window: w, Spatial: sp, SameMessage: sm})
			}
		}
	}
	return rules
}

func TestFilterBySeverityMatchesReference(t *testing.T) {
	d, _ := dataset(t)
	recs := d.EventRecords()
	for _, rule := range equivRules() {
		for _, sev := range []raslog.Severity{raslog.Fatal, raslog.Warn} {
			want, err := referenceFilterBySeverity(recs, sev, rule)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FilterBySeverity(recs, sev, rule)
			if err != nil {
				t.Fatal(err)
			}
			if diff := incidentsDiff(recs, got, want); diff != "" {
				t.Fatalf("rule %+v sev %v: %s", rule, sev, diff)
			}
		}
	}
}

func TestDatasetFilterMatchesSliceFilter(t *testing.T) {
	d, _ := dataset(t)
	recs := d.EventRecords()
	for _, rule := range equivRules() {
		wantF, err := FilterBySeverity(recs, raslog.Fatal, rule)
		if err != nil {
			t.Fatal(err)
		}
		gotF, err := d.FilterFatal(rule)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotF, wantF) {
			t.Fatalf("rule %+v: Dataset.FilterFatal diverges from FilterBySeverity", rule)
		}
		wantW, err := FilterBySeverity(recs, raslog.Warn, rule)
		if err != nil {
			t.Fatal(err)
		}
		gotW, err := d.FilterWarn(rule)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotW, wantW) {
			t.Fatalf("rule %+v: Dataset.FilterWarn diverges from FilterBySeverity", rule)
		}
	}
}

func TestFilterSweepMatchesReference(t *testing.T) {
	d, _ := dataset(t)
	recs := d.EventRecords()
	base := DefaultFilterRule()
	windows := []time.Duration{
		30 * time.Second, 5 * time.Minute, 20 * time.Minute, time.Hour, 6 * time.Hour,
	}
	raw := len(d.fatalIdx)
	want := make([]SweepPoint, len(windows))
	for i, w := range windows {
		rule := base
		rule.Window = w
		incidents, err := referenceFilterBySeverity(recs, raslog.Fatal, rule)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = SweepPoint{Window: w, Incidents: len(incidents)}
		if raw > 0 {
			want[i].Reduction = 1 - float64(len(incidents))/float64(raw)
		}
	}
	got, err := d.FilterSweep(base, windows, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sweep diverges:\n got %+v\nwant %+v", got, want)
	}
}

func TestFilterSweepRejectsBadWindow(t *testing.T) {
	d, _ := dataset(t)
	if _, err := d.FilterSweep(DefaultFilterRule(), []time.Duration{time.Minute, 0}, 0); err == nil {
		t.Error("sweep accepted a non-positive window")
	}
}

// jobFatalEvents lists the FATAL events with a job attribution, in time
// order — the stream the MTTI analysis coalesces.
func jobFatalEvents(d *Dataset) []raslog.Event {
	recs := d.EventRecords()
	var out []raslog.Event
	for i := range recs {
		if e := recs[i]; e.Sev == raslog.Fatal && e.JobID != 0 {
			out = append(out, e)
		}
	}
	return out
}

// TestMTTIIncidentsMatchReference pins the MTTI incidents — the FATAL
// view's memoized keys restricted to job-attributed events — to the
// reference fold over exactly those events, and pins what E12 and E18
// read from them (the interval series, the interrupted jobs and the
// per-phase interruption counts) to their row derivations.
func TestMTTIIncidentsMatchReference(t *testing.T) {
	d, _ := dataset(t)
	jobFatal := jobFatalEvents(d)
	for _, rule := range equivRules() {
		want, err := referenceFilterBySeverity(jobFatal, raslog.Fatal, rule)
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.MTTI(rule)
		if err != nil {
			t.Fatal(err)
		}
		checkMTTI(t, d, rule, res, want)
	}
}

// checkMTTI compares an MTTI result with the reference rows of its
// incidents: the incidents themselves, the interval series, the
// interrupted jobs and the E18 interruption counts at three phase counts.
func checkMTTI(t *testing.T, d *Dataset, rule FilterRule, res *MTTIResult, want []Incident) {
	recs := d.EventRecords()
	t.Helper()
	if diff := incidentsDiff(recs, res.Incidents, want); diff != "" {
		t.Fatalf("rule %+v: MTTI incidents: %s", rule, diff)
	}
	if res.Interruptions != len(want) {
		t.Fatalf("rule %+v: %d interruptions, reference %d", rule, res.Interruptions, len(want))
	}
	if got, ref := res.Intervals, referenceMTTIIntervals(want); !reflect.DeepEqual(got, ref) {
		t.Fatalf("rule %+v: intervals %v, reference %v", rule, got, ref)
	}
	if got, ref := res.InterruptedJobs(), referenceInterruptedJobs(want); !reflect.DeepEqual(got, ref) {
		t.Fatalf("rule %+v: interrupted jobs %v, reference %v", rule, got, ref)
	}
	for _, n := range []int{2, 4, 7} {
		phases, err := d.LifePhasesFromMTTI(n, res)
		if err != nil {
			t.Fatal(err)
		}
		ref := referencePhaseInterruptions(d, n, want)
		for i := range phases {
			if phases[i].Interruptions != ref[i] {
				t.Fatalf("rule %+v: %d phases: interruptions %d in phase %d, reference %d",
					rule, n, phases[i].Interruptions, i, ref[i])
			}
		}
	}
}

// TestIncidentsInFirstOrder checks the order contract MTTI's interval
// computation relies on: every filter entry point emits incidents in
// non-decreasing First order over a time-sorted stream.
func TestIncidentsInFirstOrder(t *testing.T) {
	d, _ := dataset(t)
	recs := d.EventRecords()
	inOrder := func(name string, rule FilterRule, incidents Incidents) {
		t.Helper()
		for i := 1; i < incidents.Len(); i++ {
			if incidents.First[i] < incidents.First[i-1] {
				t.Fatalf("%s rule %+v: incident %d starts before incident %d", name, rule, i, i-1)
			}
		}
	}
	for _, rule := range equivRules() {
		for _, sev := range []raslog.Severity{raslog.Fatal, raslog.Warn} {
			incidents, err := FilterBySeverity(recs, sev, rule)
			if err != nil {
				t.Fatal(err)
			}
			inOrder("FilterBySeverity "+sev.String(), rule, incidents)
		}
		fatals, err := d.FilterFatal(rule)
		if err != nil {
			t.Fatal(err)
		}
		inOrder("FilterFatal", rule, fatals)
		warns, err := d.FilterWarn(rule)
		if err != nil {
			t.Fatal(err)
		}
		inOrder("FilterWarn", rule, warns)
		res, err := d.MTTI(rule)
		if err != nil {
			t.Fatal(err)
		}
		inOrder("MTTI", rule, res.Incidents)
	}
}

// TestSeverityViewsPartition checks the index invariants: the views cover
// the stream exactly once, match the severity they claim, and preserve time
// order.
func TestSeverityViewsPartition(t *testing.T) {
	d, _ := dataset(t)
	recs := d.EventRecords()
	fatal, warn := d.fatalIdx, d.warnIdx
	seen := make(map[int]bool, len(fatal)+len(warn))
	for _, idx := range [][]int{fatal, warn} {
		for n, i := range idx {
			if seen[i] {
				t.Fatalf("event %d appears in two views", i)
			}
			seen[i] = true
			if n > 0 && recs[idx[n-1]].Time.After(recs[i].Time) {
				t.Fatalf("view out of time order at position %d", n)
			}
		}
	}
	for _, i := range fatal {
		if recs[i].Sev != raslog.Fatal {
			t.Fatalf("event %d in FATAL view has severity %v", i, recs[i].Sev)
		}
	}
	for _, i := range warn {
		if recs[i].Sev != raslog.Warn {
			t.Fatalf("event %d in WARN view has severity %v", i, recs[i].Sev)
		}
	}
	info := 0
	for i := range recs {
		if !seen[i] {
			if s := recs[i].Sev; s == raslog.Fatal || s == raslog.Warn {
				t.Fatalf("event %d (sev %v) missing from its view", i, s)
			}
			info++
		}
	}
	s := d.Summarize()
	if s.RASFatal != len(fatal) || s.RASWarn != len(warn) || s.RASInfo != info || s.RASTotal != len(recs) {
		t.Fatalf("Summarize severity tallies (%d/%d/%d/%d) disagree with views (%d/%d/%d/%d)",
			s.RASFatal, s.RASWarn, s.RASInfo, s.RASTotal, len(fatal), len(warn), info, len(recs))
	}
}

// TestInternKeysMatchReference requires the packed uint64 keys to assign
// the struct-keyed interning's ids, in first-appearance order, at every
// spatial level: on the corpus's FATAL and WARN views, and on events that
// mix the zero Location with the system (one location: the view holds
// both as the system), a rack, its midplanes, boards and nodes, across
// two messages that share a category. The same mixed events
// are also read through a view whose message-id and category dictionaries
// list their first string twice (a pack image may), with every other row
// on the duplicate code.
func TestInternKeysMatchReference(t *testing.T) {
	d, _ := dataset(t)
	recs := d.EventRecords()
	locs := []machine.Location{{}, machine.System()}
	for _, mk := range []func() (machine.Location, error){
		func() (machine.Location, error) { return machine.Rack(3) },
		func() (machine.Location, error) { return machine.Midplane(3, 0) },
		func() (machine.Location, error) { return machine.Midplane(3, 1) },
		func() (machine.Location, error) { return machine.NodeBoard(3, 1, 15) },
		func() (machine.Location, error) { return machine.Node(3, 1, 15, 31) },
		func() (machine.Location, error) { return machine.Node(47, 1, 0, 0) },
	} {
		loc, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	var mixed []raslog.Event
	for i := 0; i < 3*len(locs); i++ {
		msg := []string{"00010001", "00010002"}[i%2]
		mixed = append(mixed, raslog.Event{MsgID: msg, Cat: raslog.CatMemory, Sev: raslog.Warn, Loc: locs[(i*5)%len(locs)]})
	}
	mixedIdx := severityIndex(mixed, raslog.Warn)
	// The view holds the zero Location as the system, which it is, so the
	// reference reads it as the system too.
	mixedRef := append([]raslog.Event(nil), mixed...)
	for i := range mixedRef {
		if mixedRef[i].Loc == (machine.Location{}) {
			mixedRef[i].Loc = machine.System()
		}
	}
	dup := BuildEventView(mixed)
	dup.MsgIDs = append(dup.MsgIDs, dup.MsgIDs[0])
	dup.Cats = append(dup.Cats, dup.Cats[0])
	for i := 0; i < dup.N; i += 2 {
		if dup.MsgID[i] == 0 {
			dup.MsgID[i] = int32(len(dup.MsgIDs) - 1)
		}
		if dup.CatID[i] == 0 {
			dup.CatID[i] = int32(len(dup.Cats) - 1)
		}
	}
	for _, sp := range []machine.Level{machine.LevelSystem, machine.LevelRack, machine.LevelMidplane, machine.LevelNodeBoard, machine.LevelNode} {
		for _, sm := range []bool{true, false} {
			rule := FilterRule{Window: time.Minute, Spatial: sp, SameMessage: sm}
			for name, in := range map[string]struct {
				view   *scan.EventView
				events []raslog.Event
				idx    []int
			}{
				"fatal":            {d.EventView(), recs, d.fatalIdx},
				"warn":             {d.EventView(), recs, severityIndex(recs, raslog.Warn)},
				"mixed":            {BuildEventView(mixed), mixedRef, mixedIdx},
				"duplicated codes": {dup, mixedRef, mixedIdx},
			} {
				got, want := internKeys(in.view, in.idx, rule), referenceInternKeys(in.events, in.idx, rule)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s rule %+v: %d keys, reference %d", name, rule, got.nKeys, want.nKeys)
				}
			}
		}
	}
}
