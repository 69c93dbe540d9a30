package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bitmap"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
	"repro/internal/sel"
	"repro/internal/tasklog"
)

// equivalencePredicates builds the suite of -where expressions the
// pushdown contract is verified against, drawing concrete values (users,
// categories, time windows) from the dataset so every shape selects a
// meaningful cohort.
func equivalencePredicates(t *testing.T, d *Dataset) []string {
	t.Helper()
	jv, ev := d.JobView(), d.EventView()
	start, end := d.Span()
	mid := start.Add(end.Sub(start) / 2)
	day := func(ti interface{ Format(string) string }) string { return ti.Format("2006-01-02") }
	preds := []string{
		// Dictionary equality and disjunction on the job side.
		fmt.Sprintf("user == %s", jv.Users[0]),
		fmt.Sprintf("user == %s or project == %s", jv.Users[1], jv.Projects[0]),
		fmt.Sprintf("user in (%s, %s, %s)", jv.Users[0], jv.Users[2], jv.Users[3]),
		// Exit-family index, including negation against the universe.
		"exit == system",
		"exit in (killed, segfault)",
		"not exit == success",
		// Numeric column scans.
		"nodes >= 1024",
		"dur > 3600 and nodes < 4096",
		// Submit-time day buckets (sub-month window with ragged edges).
		fmt.Sprintf("submit >= %s and submit < %s", day(start.AddDate(0, 0, 10)), day(start.AddDate(0, 0, 41))),
		// Event-side selections: severity, category dictionary, time range.
		"sev == FATAL",
		fmt.Sprintf("cat == %s", ev.Cats[0]),
		fmt.Sprintf("sev != INFO and time < %s", day(mid)),
		// Spatial index (may select few or no events — both legal).
		"midplane == R00-M0 or rack == R01",
		// Mixed job+event cohort via top-level conjunction.
		fmt.Sprintf("project == %s and sev == FATAL", jv.Projects[1]),
		fmt.Sprintf("submit >= %s and time >= %s and exit != success",
			day(start.AddDate(0, 1, 0)), day(start.AddDate(0, 1, 0))),
	}
	return append(preds, memoBranchPredicates(t, d)...)
}

// memoBranchPredicates are the cohorts that read the whole-table memo's
// job half (cohortSel, cohortSpan) under spans of each kind, and each
// coalesced range pair of CompileWhere. The job-only cohorts above (user,
// exit, nodes, submit) already leave the event side unconstrained.
func memoBranchPredicates(t *testing.T, d *Dataset) []string {
	recs := d.EventRecords()
	t.Helper()
	jv, ev := d.JobView(), d.EventView()
	w, err := d.wholeTable(1)
	if err != nil {
		t.Fatal(err)
	}
	// An event-only cohort starting at an event that precedes every job
	// submit but is not the corpus's first event: its span starts before
	// the memo's job extremes and after the corpus's start.
	first := sort.Search(ev.N, func(i int) bool { return ev.TimeUnix[i] > ev.TimeUnix[0] })
	if first == ev.N || ev.TimeUnix[first] >= w.allJobs.walk.start {
		t.Fatal("corpus has no second-second event before the first job submit")
	}
	return []string{
		fmt.Sprintf("time >= %d", ev.TimeUnix[first]),
		// An event-only cohort holding the corpus's first event: its span
		// equals the corpus's.
		fmt.Sprintf("sev == %s", recs[0].Sev),
		// Job-only cohort with a coalesced numeric pair.
		"nodes > 512 and nodes <= 4096",
		// Coalesced submit pair next to an event constraint.
		fmt.Sprintf("submit >= %d and exit == system and submit < %d and sev == FATAL",
			jv.SubmitUnix[jv.N/4], jv.SubmitUnix[jv.N/2]),
	}
}

// referenceSpan walks the selected records for their observation window
// in Unix seconds, as NewDataset's span walk would over a dataset of just
// those records; an empty selection has the zero span.
func referenceSpan(d *Dataset, jobSel, eventSel *bitmap.Bitmap) (startUnix, endUnix int64) {
	recs := d.EventRecords()
	jobs := d.JobRecords()
	var start, end time.Time
	seeded := false
	forEachSelected(jobSel, len(jobs), func(row int) {
		j := &jobs[row]
		if !seeded {
			start, end, seeded = j.Submit, j.End, true
			return
		}
		if j.Submit.Before(start) {
			start = j.Submit
		}
		if j.End.After(end) {
			end = j.End
		}
	})
	forEachSelected(eventSel, len(recs), func(row int) {
		t := recs[row].Time
		if !seeded {
			start, end, seeded = t, t, true
			return
		}
		if t.Before(start) {
			start = t
		} else if t.After(end) {
			end = t
		}
	})
	if !seeded {
		return 0, 0
	}
	return start.Unix(), end.Unix()
}

// referenceScanSel is the unmemoized cohort scan: every kernel over both
// selections, the joint tally from the per-row oracle kernel, the span
// walked record by record, and the distinct projects counted from the
// project tally — the oracle for cohorts MaterializeWhere cannot build
// (an empty job side).
func referenceScanSel(d *Dataset, jobSel, eventSel *bitmap.Bitmap) (*FusedProfile, error) {
	jv, ev := d.JobView(), d.EventView()
	start, end := referenceSpan(d, jobSel, eventSel)
	tk := newTemporalJobKernelSpan(start, end)
	joint := newJointKernelWhere(d, DefaultJointOptions(), eventSel)
	jsts, err := scan.Run(jv, jv.N, jobSel, append(fusedJobKernels(jv, tk), joint), 1)
	if err != nil {
		return nil, err
	}
	ests, err := scan.Run(ev, ev.N, eventSel, fusedEventKernels(ev, tk.monthCap), 1)
	if err != nil {
		return nil, err
	}
	js := jobSide{
		fams:  familyTotalsOf(jsts[kFamilies].(*tallyState[uint8])),
		users: jsts[kUsers].(*tallyState[int32]).groups(jv.Users),
		walk:  referenceJobCounts(d, jobSel),
	}
	js.walk.projects = len(jsts[kProjects].(*tallyState[int32]).groups(jv.Projects))
	return d.finishProfile(js, jsts, ests, jsts[len(jsts)-1].(*jointState).sys, start, end), nil
}

// referenceJobCounts counts the selected jobs (nil = all) and their task
// and I/O records, the Summary rows a materialized dataset would report.
func referenceJobCounts(d *Dataset, jobSel *bitmap.Bitmap) jobWalk {
	jobs, tasks := d.JobRecords(), d.TaskRecords()
	if jobSel == nil {
		return jobWalk{jobs: len(jobs), tasks: len(tasks), io: len(d.IO)}
	}
	tasksOf := tasksByJobID(tasks)
	var w jobWalk
	forEachSelected(jobSel, len(jobs), func(row int) {
		w.jobs++
		w.tasks += len(tasksOf[jobs[row].ID])
		if d.ioOf[row] >= 0 {
			w.io++
		}
	})
	return w
}

// jointKernel is the oracle of the joint attribution index: a per-row
// kernel counting the failed jobs RAS correlation attributes to the
// system. It precomputes the block-attributable FATAL streams once
// (locations at rack level or finer, their times, and the directly
// attributed job ids) so each shard only binary-searches the times array.
type jointKernel struct {
	tasks      map[int64][]tasklog.Task // each job id's task records
	locs       []machine.Location       // block-attributable FATALs, time order
	times      []int64                  // their times, Unix seconds
	attributed map[int64]bool           // job ids named by any FATAL event
	tolSec     int64                    // the tolerance in whole seconds
}

// newJointKernelWhere restricts the kernel's FATAL streams to the selected
// events (nil = all), so a cohort scan attributes failures exactly as a
// dataset materialized from that selection would.
func newJointKernelWhere(d *Dataset, opt JointOptions, eventSel *bitmap.Bitmap) *jointKernel {
	recs := d.EventRecords()
	if opt.Tolerance <= 0 {
		opt = DefaultJointOptions()
	}
	// Times are whole seconds, so |t−end| ≤ tol holds exactly when
	// |t−end| ≤ ⌊tol⌋.
	k := &jointKernel{tasks: tasksByJobID(d.TaskRecords()), attributed: map[int64]bool{}, tolSec: int64(opt.Tolerance / time.Second)}
	times := d.EventView().TimeUnix
	for _, i := range d.fatalIdx {
		if eventSel != nil && !eventSel.Contains(uint32(i)) {
			continue
		}
		e := &recs[i]
		if e.JobID != 0 {
			k.attributed[e.JobID] = true
		}
		if e.Loc.Level() < machine.LevelRack {
			continue
		}
		k.locs = append(k.locs, e.Loc)
		k.times = append(k.times, times[i])
	}
	return k
}

func (k *jointKernel) Name() string       { return "joint-tally" }
func (k *jointKernel) NewState() JobState { return &jointState{k: k} }

type jointState struct {
	k   *jointKernel
	sys int // failed jobs attributed to the system
}

//mira:hotpath
func (s *jointState) ProcessBlock(v *scan.JobView, lo, hi int) {
	k := s.k
	fam, ids, ends := v.Family, v.ID, v.EndUnix
	for i := lo; i < hi; i++ {
		if fam[i] == 0 {
			continue
		}
		if k.attributed[ids[i]] || k.fatalNearEnd(ids[i], ends[i]) {
			s.sys++
		}
	}
}

// fatalNearEnd reports whether a FATAL event within tol of the job's end
// hits a block the job ran on.
func (k *jointKernel) fatalNearEnd(id, end int64) bool {
	tasks := k.tasks[id]
	if len(tasks) == 0 {
		return false
	}
	times := k.times
	lo, hi := 0, len(times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if times[mid] < end-k.tolSec {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(times) && times[i] <= end+k.tolSec; i++ {
		for t := range tasks {
			if tasks[t].Block.ContainsLocation(k.locs[i]) {
				return true
			}
		}
	}
	return false
}

func (s *jointState) Merge(other JobState) { s.sys += other.(*jointState).sys }

// profileFields compares every exported aggregate of two fused profiles.
func profileFields(t *testing.T, label string, got, want *FusedProfile) {
	t.Helper()
	cmp := func(name string, g, w interface{}) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s differs:\n  got  %+v\n  want %+v", label, name, g, w)
		}
	}
	cohortFields(t, label, &got.Cohort, &want.Cohort)
	cmp("Joint", got.Joint, want.Joint)
	cmp("ProjectGroups", got.ProjectGroups, want.ProjectGroups)
	cmp("Temporal", got.Temporal, want.Temporal)
	cmp("RAS", got.RAS, want.RAS)
	cmp("Waste", got.Waste, want.Waste)
	cmp("Interrupts", got.Interrupts, want.Interrupts)
	cmp("InterruptsErr", fmt.Sprint(got.InterruptsErr), fmt.Sprint(want.InterruptsErr))
	for _, lvl := range []struct {
		name       string
		g, w       *LocalityResult
		gErr, wErr error
	}{
		{"Locality(mid)", got.localityMid, want.localityMid, got.localityMidErr, want.localityMidErr},
		{"Locality(rack)", got.localityRack, want.localityRack, got.localityRackErr, want.localityRackErr},
	} {
		cmp(lvl.name, lvl.g, lvl.w)
		cmp(lvl.name+" err", fmt.Sprint(lvl.gErr), fmt.Sprint(lvl.wErr))
	}
	for _, by := range []GroupBy{ByUser, ByProject} {
		g, gErr := got.Concentration(by)
		w, wErr := want.Concentration(by)
		cmp("Concentration("+by.String()+")", g, w)
		cmp("Concentration("+by.String()+") err", fmt.Sprint(gErr), fmt.Sprint(wErr))
	}
}

// cohortFields compares the three fields of two cohorts.
func cohortFields(t *testing.T, label string, got, want *Cohort) {
	t.Helper()
	for _, f := range []struct {
		name string
		g, w interface{}
	}{
		{"Summary", got.Summary, want.Summary},
		{"Exit", got.Exit, want.Exit},
		{"UserGroups", got.UserGroups, want.UserGroups},
	} {
		if !reflect.DeepEqual(f.g, f.w) {
			t.Errorf("%s: %s differs:\n  got  %+v\n  want %+v", label, f.name, f.g, f.w)
		}
	}
}

// TestFusedScanWhereEquivalence is the pushdown acceptance suite: for
// every predicate, FusedScanWhere must reproduce the Cohort of
// filter-then-FusedScan exactly, and must itself be identical across
// worker counts.
//
// Each worker count gets its own cold Dataset, so the whole-table memo the
// unconstrained side reuses is itself built at that worker count.
func TestFusedScanWhereEquivalence(t *testing.T) {
	d, _ := dataset(t)
	cold := map[int]*Dataset{}
	for _, workers := range []int{1, 4, 8} {
		cold[workers] = freshDataset(t)
	}
	for _, where := range equivalencePredicates(t, d) {
		e, err := sel.Parse(where)
		if err != nil {
			t.Fatalf("parse %q: %v", where, err)
		}
		md, err := d.MaterializeWhere(e)
		if err != nil {
			t.Fatalf("materialize %q: %v", where, err)
		}
		want, err := md.FusedScan(4)
		if err != nil {
			t.Fatalf("reference scan %q: %v", where, err)
		}
		var first *Cohort
		for _, workers := range []int{1, 4, 8} {
			got, err := cold[workers].FusedScanWhere(e, workers)
			if err != nil {
				t.Fatalf("FusedScanWhere(%q, workers=%d): %v", where, workers, err)
			}
			cohortFields(t, fmt.Sprintf("%q workers=%d vs materialized", where, workers), got, &want.Cohort)
			if first == nil {
				first = got
			} else {
				cohortFields(t, fmt.Sprintf("%q workers=%d vs workers=1", where, workers), got, first)
			}
		}
	}
}

// TestFusedScanWhereEmptyJobCohort covers the cohort MaterializeWhere
// cannot build: no job matches, every event is selected, so the span is
// seeded from the first and last events alone.
func TestFusedScanWhereEmptyJobCohort(t *testing.T) {
	for _, where := range []string{"user == nosuchuser", "user == nosuchuser and sev == FATAL"} {
		e := mustParse(t, where)
		for _, workers := range []int{1, 4, 8} {
			d := freshDataset(t)
			got, err := d.FusedScanWhere(e, workers)
			if err != nil {
				t.Fatalf("%q workers=%d: %v", where, workers, err)
			}
			jobSel, eventSel, err := d.CompileWhere(e)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceScanSel(d, jobSel, eventSel)
			if err != nil {
				t.Fatal(err)
			}
			cohortFields(t, fmt.Sprintf("%q workers=%d vs reference", where, workers), got, &want.Cohort)
			if got.Summary.Jobs != 0 || got.Summary.Days <= 0 {
				t.Errorf("%q: summary %+v, want no jobs over a positive event span", where, got.Summary)
			}
		}
	}
}

// TestCohortSpanMatchesWalk pins the short-cut span against the record
// walk NewDataset performs, for every matrix predicate and both sides
// unconstrained or empty.
func TestCohortSpanMatchesWalk(t *testing.T) {
	d, _ := dataset(t)
	w, err := d.wholeTable(1)
	if err != nil {
		t.Fatal(err)
	}
	wheres := append(equivalencePredicates(t, d), "user == nosuchuser", "cat == nosuchcat", "user == nosuchuser and cat == nosuchcat",
		"project == nosuchproj", "comp == nosuchcomp")
	for _, where := range wheres {
		jobSel, eventSel, err := d.CompileWhere(mustParse(t, where))
		if err != nil {
			t.Fatal(err)
		}
		jw := w.allJobs.walk
		if jobSel != nil {
			jw = d.walkJobs(jobSel)
		}
		got0, got1 := d.cohortSpan(jw, jobSel, eventSel)
		want0, want1 := referenceSpan(d, jobSel, eventSel)
		if got0 != want0 || got1 != want1 {
			t.Errorf("%q: span %d..%d, walk gives %d..%d", where, got0, got1, want0, want1)
		}
	}
}

// TestCoalesceRanges pins which range conjuncts merge into one leaf.
func TestCoalesceRanges(t *testing.T) {
	for _, c := range []struct{ where, want string }{
		{`submit >= 100 and submit < 200`, `(submit >= "100" and submit < "200")`},
		{`nodes > 512 and user == u1 and nodes <= 4096`, `(nodes > "512" and nodes <= "4096") | user == "u1"`},
		{`nodes <= 4096 and nodes > 512`, `(nodes > "512" and nodes <= "4096")`},
		// Two lower bounds on one column: left as written.
		{`dur > 1 and dur > 2 and dur < 9`, `dur > "1" | dur > "2" | dur < "9"`},
		// A bound that does not parse keeps its own leaf (and error).
		{`nodes >= abc and nodes < 9`, `nodes >= "abc" | nodes < "9"`},
		// Different columns never merge.
		{`submit >= 100 and time < 200`, `submit >= "100" | time < "200"`},
	} {
		var jobs, events []sel.Expr
		if err := splitConjuncts(mustParse(t, c.where), &jobs, &events); err != nil {
			t.Fatal(err)
		}
		var parts []string
		for _, e := range append(coalesceRanges(jobs), coalesceRanges(events)...) {
			parts = append(parts, e.String())
		}
		if got := strings.Join(parts, " | "); got != c.want {
			t.Errorf("coalesce %q = %s, want %s", c.where, got, c.want)
		}
	}
}

// TestCoalescedRangesMatchSweep checks coalesced range pairs select
// exactly the rows a column sweep does, with bounds on existing values
// under every inclusivity. (The materialized reference compiles through
// CompileWhere too, so the equivalence matrix alone cannot see a wrong
// merge.)
//
// The pre-epoch case bounds submit on 1970-01-01 over jobs submitted
// either side of that midnight: the submit-day buckets must floor
// pre-epoch instants onto 1969-12-31, or a window covering all of
// 1970-01-01 selects the last hours of 1969 with it.
func TestCoalescedRangesMatchSweep(t *testing.T) {
	d := freshDataset(t)
	jv, ev := d.JobView(), d.EventView()
	type rangeCol struct {
		name   string
		n      int
		val    func(i int) int64
		domain selDomain
	}
	cols := []rangeCol{
		{"submit", jv.N, func(i int) int64 { return jv.SubmitUnix[i] }, domJob},
		{"nodes", jv.N, func(i int) int64 { return int64(jv.Nodes[i]) }, domJob},
		{"time", ev.N, func(i int) int64 { return ev.TimeUnix[i] }, domEvent},
	}
	check := func(d *Dataset, c rangeCol, lo, hi int64) {
		t.Helper()
		for _, ops := range [][2]string{{">=", "<"}, {">=", "<="}, {">", "<"}, {">", "<="}} {
			where := fmt.Sprintf("%s %s %d and %s %s %d", c.name, ops[0], lo, c.name, ops[1], hi)
			jobSel, eventSel, err := d.CompileWhere(mustParse(t, where))
			if err != nil {
				t.Fatal(err)
			}
			b := jobSel
			if c.domain == domEvent {
				b = eventSel
			}
			n := 0
			for i := 0; i < c.n; i++ {
				v := c.val(i)
				want := (v > lo || ops[0] == ">=" && v == lo) && (v < hi || ops[1] == "<=" && v == hi)
				if b.Contains(uint32(i)) != want {
					t.Fatalf("%q: row %d (value %d) selected=%v, want %v", where, i, v, !want, want)
				}
				if want {
					n++
				}
			}
			if b.Cardinality() != n {
				t.Fatalf("%q: cardinality %d, want %d", where, b.Cardinality(), n)
			}
		}
	}
	for _, c := range cols {
		lo, hi := c.val(c.n/4), c.val(c.n/2)
		if lo > hi {
			lo, hi = hi, lo
		}
		check(d, c, lo, hi)
	}

	// Pre-epoch submit-day buckets.
	var jobs []joblog.Job
	for i, submit := range []time.Time{
		time.Date(1969, 12, 30, 12, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1970, 1, 1, 12, 0, 0, 0, time.UTC),
		time.Date(1970, 1, 1, 23, 59, 59, 0, time.UTC),
		time.Date(1970, 1, 2, 0, 0, 0, 0, time.UTC),
		time.Date(1970, 1, 2, 6, 0, 0, 0, time.UTC),
	} {
		jobs = append(jobs, joblog.Job{
			ID: int64(i + 1), User: "u1", Project: "p", Queue: "q",
			Submit: submit, Start: submit, End: submit.Add(10 * time.Minute),
			WalltimeReq: time.Hour, Nodes: 512, RanksPerNode: 16, NumTasks: 1,
		})
	}
	pre, err := NewDataset(jobs, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pjv := pre.JobView()
	day := int64(86400)
	c := rangeCol{name: "submit", n: pjv.N, val: func(i int) int64 { return pjv.SubmitUnix[i] }, domain: domJob}
	check(pre, c, 0, day)   // exactly 1970-01-01
	check(pre, c, -1, day)  // from the last second of 1969
	check(pre, c, -day, 0)  // exactly 1969-12-31
	check(pre, c, 1, day-1) // strictly inside 1970-01-01
	jobSel, _, err := pre.CompileWhere(mustParse(t, "submit >= 1970-01-01 and submit < 1970-01-02"))
	if err != nil {
		t.Fatal(err)
	}
	if got := jobSel.Cardinality(); got != 3 {
		t.Errorf("submit on 1970-01-01 selected %d jobs, want 3", got)
	}
}

// TestSelectionCacheBounded compiles more distinct predicates than the
// compiled-selection cache holds: the cache stays within its bound and
// every result (fresh or evicted and recompiled) equals a column sweep.
func TestSelectionCacheBounded(t *testing.T) {
	d := freshDataset(t)
	jv := d.JobView()
	check := func(lo int) {
		t.Helper()
		b, err := d.SelectJobs(mustParse(t, fmt.Sprintf("dur >= %d", lo)))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for i, v := range jv.DurSec {
			want := v >= int64(lo)
			if b.Contains(uint32(i)) != want {
				t.Fatalf("dur >= %d: row %d selected=%v, want %v", lo, i, !want, want)
			}
			if want {
				n++
			}
		}
		if b.Cardinality() != n {
			t.Fatalf("dur >= %d: cardinality %d, want %d", lo, b.Cardinality(), n)
		}
	}
	x := d.selIdx()
	for i := 0; i < selCacheCap+50; i++ {
		check(60 * i)
		x.mu.Lock()
		size, ring := len(x.cache), len(x.order)
		x.mu.Unlock()
		if size > selCacheCap || size != ring {
			t.Fatalf("after %d predicates: cache holds %d entries (ring %d), bound %d", i+1, size, ring, selCacheCap)
		}
	}
	check(0) // evicted long ago: recompiles to the same rows
}

// TestFusedScanWhereNilPredicate pins the degenerate path: no predicate
// means the Cohort of the plain whole-corpus FusedScan.
func TestFusedScanWhereNilPredicate(t *testing.T) {
	d, _ := dataset(t)
	want, err := d.FusedScan(4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.FusedScanWhere(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	cohortFields(t, "nil predicate", got, &want.Cohort)
}

// TestSelectionCacheReuse checks repeated queries hand back the same
// compiled bitmap (the warm path the cohort accessors rely on).
func TestSelectionCacheReuse(t *testing.T) {
	d, _ := dataset(t)
	e, err := sel.Parse("exit == system or nodes >= 2048")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := d.SelectJobs(e)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.SelectJobs(e)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("compiled selection was not cached")
	}
	if b1.IsEmpty() {
		t.Error("predicate selected no jobs in the 90-day corpus")
	}
}

// TestCompileWhereErrors pins the compiler's error surface.
func TestCompileWhereErrors(t *testing.T) {
	d, _ := dataset(t)
	for _, bad := range []string{
		"bogus == 1",                   // unknown column
		"user == u000 or sev == FATAL", // cross-domain disjunct
		"sev == BOGUS",                 // bad severity
		"nodes >= abc",                 // bad number
		"midplane == R00",              // rack given for midplane column
		"rack == R00-M0",               // midplane given for rack column
		"submit >= notadate",           // bad timestamp
		"user < u100",                  // dictionary column has no order
		"exit == bogus",                // unknown exit family
	} {
		e, err := sel.Parse(bad)
		if err != nil {
			t.Fatalf("parse %q: %v", bad, err)
		}
		if _, _, err := d.CompileWhere(e); err == nil {
			t.Errorf("CompileWhere(%q) succeeded, want error", bad)
		}
	}
}

// TestSelectEventsMatchesSweep cross-checks a few index-served selections
// against a naive row sweep.
func TestSelectEventsMatchesSweep(t *testing.T) {
	d, _ := dataset(t)
	ev := d.EventView()
	e, err := sel.Parse("sev == FATAL or sev == WARN")
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.SelectEvents(e)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < ev.N; i++ {
		want := ev.Sev[i] == 2 || ev.Sev[i] == 3
		if got := b.Contains(uint32(i)); got != want {
			t.Fatalf("event %d: selected=%v, want %v", i, got, want)
		}
		if want {
			n++
		}
	}
	if b.Cardinality() != n {
		t.Errorf("cardinality %d, want %d", b.Cardinality(), n)
	}
}

func TestIndexStats(t *testing.T) {
	d, _ := dataset(t)
	d.BuildIndexes()
	stats := d.IndexStats()
	jv, ev := d.JobView(), d.EventView()
	// walk counts the distinct keys of a column and the rows that have
	// one (a negative key is an event without a location at the level).
	walk := func(n int, key func(i int) int64) (keys, rows int) {
		seen := map[int64]bool{}
		for i := 0; i < n; i++ {
			if k := key(i); k >= 0 {
				seen[k] = true
				rows++
			}
		}
		return len(seen), rows
	}
	want := []struct {
		dim string
		n   int
		key func(i int) int64
	}{
		{"job.user", jv.N, func(i int) int64 { return int64(jv.UserID[i]) }},
		{"job.project", jv.N, func(i int) int64 { return int64(jv.ProjectID[i]) }},
		{"job.exit", jv.N, func(i int) int64 { return int64(jv.Family[i]) }},
		{"job.submit", jv.N, func(i int) int64 { d, _ := floorDay(jv.SubmitUnix[i]); return d }},
		{"event.sev", ev.N, func(i int) int64 { return int64(ev.Sev[i]) }},
		{"event.cat", ev.N, func(i int) int64 { return int64(ev.CatID[i]) }},
		{"event.comp", ev.N, func(i int) int64 { return int64(ev.CompID[i]) }},
		{"event.midplane", ev.N, func(i int) int64 { return int64(ev.MidplaneID[i]) }},
		{"event.rack", ev.N, func(i int) int64 { return int64(ev.RackID[i]) }},
	}
	if len(stats) != len(want) {
		t.Fatalf("%d index stats, want %d", len(stats), len(want))
	}
	for i, w := range want {
		s := stats[i]
		if got := s.Domain + "." + s.Column; got != w.dim {
			t.Errorf("stat %d is %s, want %s", i, got, w.dim)
			continue
		}
		keys, rows := walk(w.n, w.key)
		if !s.Built || s.Keys != keys || s.Rows != rows {
			t.Errorf("%s stat = %+v, the column walk gives %d keys covering %d rows", w.dim, s, keys, rows)
		}
		if s.Rows > 0 && s.Bytes == 0 {
			t.Errorf("%s: %d rows but zero compressed bytes", w.dim, s.Rows)
		}
	}
}

// jointEdgeCorpus is the 90-day corpus plus the records a joint
// attribution must handle as the per-row kernel does: a failed job without
// tasks named by a FATAL (attributed), a failed job without tasks with a
// rack FATAL at its end (not attributed: no block), a FATAL naming an
// absent job id, one naming a successful job, system-level FATALs at the
// ends of failed jobs that ran tasks (attributed only where they name the
// job), block FATALs exactly at and one second past the tolerance on
// either side, and a block FATAL that also names its job. It returns the
// records and the rows of the two taskless jobs.
func jointEdgeCorpus(t *testing.T) (jobs []joblog.Job, events []raslog.Event, named, unnamed int) {
	t.Helper()
	d, c := dataset(t)
	jobs = append([]joblog.Job(nil), c.Jobs...)
	events = append([]raslog.Event(nil), c.Events...)
	maxID, maxRec := int64(0), int64(0)
	for i := range jobs {
		maxID = max(maxID, jobs[i].ID)
	}
	for i := range events {
		maxRec = max(maxRec, events[i].RecID)
	}
	tmpl := events[d.fatalIdx[0]]
	fatal := func(at time.Time, loc machine.Location, jobID int64) {
		maxRec++
		e := tmpl
		e.RecID, e.Time, e.Loc, e.JobID = maxRec, at, loc, jobID
		events = append(events, e)
	}
	tasksOf := tasksByJobID(c.Tasks)
	onBlock := func(row int) machine.Location {
		loc, err := machine.MidplaneByID(tasksOf[jobs[row].ID][0].Block.MidplaneIDs()[0])
		if err != nil {
			t.Fatal(err)
		}
		return loc
	}
	rack0, err := machine.Rack(0)
	if err != nil {
		t.Fatal(err)
	}
	var failed []int // failed jobs with tasks
	succeeded := -1
	for i := range jobs {
		switch {
		case joblog.Family(jobs[i].ExitStatus) == joblog.FamilySuccess:
			if succeeded < 0 {
				succeeded = i
			}
		case len(tasksOf[jobs[i].ID]) > 0:
			failed = append(failed, i)
		}
	}
	if len(failed) < 40 || succeeded < 0 {
		t.Fatal("corpus has too few failed jobs with tasks")
	}
	tol := DefaultJointOptions().Tolerance
	for k := 0; k < 6; k++ {
		j := &jobs[failed[k]]
		if k == 0 {
			fatal(j.End, machine.System(), j.ID) // names the job: attributed
		} else {
			fatal(j.End.Add(time.Duration(k)*time.Second), machine.System(), 0)
		}
	}
	fatal(jobs[failed[10]].End.Add(tol), onBlock(failed[10]), 0)
	fatal(jobs[failed[15]].End.Add(-tol), onBlock(failed[15]), 0)
	fatal(jobs[failed[20]].End.Add(-tol-time.Second), onBlock(failed[20]), 0)
	fatal(jobs[failed[25]].End.Add(tol+time.Second), onBlock(failed[25]), 0)
	fatal(jobs[failed[30]].End, onBlock(failed[30]), jobs[failed[30]].ID)
	fatal(jobs[succeeded].End, onBlock(succeeded), jobs[succeeded].ID)
	for k := 1; k <= 2; k++ {
		j := jobs[failed[len(failed)/2]]
		j.ID, j.ExitStatus = maxID+int64(k), joblog.ExitGeneralError
		jobs = append(jobs, j)
		if k == 1 {
			fatal(j.End.Add(-time.Hour), rack0, j.ID)
		} else {
			fatal(j.End, rack0, 0)
		}
	}
	fatal(jobs[0].End, rack0, maxID+100) // names no job
	return jobs, events, len(jobs) - 2, len(jobs) - 1
}

// TestJointIndexMatchesKernel checks the joint attribution index against
// the per-row kernel it replaced, on the edge-case corpus: the cohort
// joint tally equals the kernel's count under every pairing of the event
// selections (nil, empty, all FATAL, a time window, one rack) and job
// selections (nil, sparse, dense) at 1, 4 and GOMAXPROCS workers, each
// worker count on a cold Dataset. Each listed job's FATAL list is checked
// entry by entry: every entry alone attributes the job, and the FATALs
// outside the list attribute nothing. The count allocates nothing.
func TestJointIndexMatchesKernel(t *testing.T) {
	jobs, events, named, unnamed := jointEdgeCorpus(t)
	_, c := dataset(t)
	fresh := func() *Dataset {
		d, err := NewDataset(jobs, c.Tasks, events, c.IO)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	probe := fresh()
	jv := probe.JobView()
	kernelCount := func(d *Dataset, jobSel, eventSel *bitmap.Bitmap, workers int) int {
		t.Helper()
		sts, err := scan.Run(jv, jv.N, jobSel, []JobKernel{newJointKernelWhere(d, DefaultJointOptions(), eventSel)}, workers)
		if err != nil {
			t.Fatal(err)
		}
		return sts[0].(*jointState).sys
	}

	w, err := probe.wholeTable(1)
	if err != nil {
		t.Fatal(err)
	}
	x := w.joint
	if len(x.rows) == 0 || len(x.off) != len(x.rows)+1 || int(x.off[len(x.rows)]) != len(x.fatals) {
		t.Fatalf("malformed index: %d rows, %d offsets, %d entries", len(x.rows), len(x.off), len(x.fatals))
	}
	if !slices.Contains(x.rows, int32(named)) || slices.Contains(x.rows, int32(unnamed)) {
		t.Errorf("taskless jobs: named listed=%v (want true), unnamed listed=%v (want false)",
			slices.Contains(x.rows, int32(named)), slices.Contains(x.rows, int32(unnamed)))
	}
	allFatal := bitmap.New()
	for _, i := range probe.fatalIdx {
		allFatal.Add(uint32(i))
	}
	for i, row := range x.rows {
		only := bitmap.New()
		only.Add(uint32(row))
		list := x.fatals[x.off[i]:x.off[i+1]]
		if len(list) == 0 {
			t.Fatalf("row %d: empty FATAL list", row)
		}
		for k := 1; k < len(list); k++ {
			if list[k] <= list[k-1] {
				t.Fatalf("row %d: FATAL list %v is not strictly ascending", row, list)
			}
		}
		for _, e := range list {
			one := bitmap.New()
			one.Add(uint32(e))
			if kernelCount(probe, only, one, 1) != 1 {
				t.Errorf("row %d: listed FATAL %d does not attribute it", row, e)
			}
		}
		rest := bitmap.New()
		for _, e := range probe.fatalIdx {
			if _, found := slices.BinarySearch(list, int32(e)); !found {
				rest.Add(uint32(e))
			}
		}
		if kernelCount(probe, only, rest, 1) != 0 {
			t.Errorf("row %d: a FATAL outside its list attributes it", row)
		}
	}

	start, end := probe.Span()
	mid := start.Add(end.Sub(start) / 2)
	window, err := probe.SelectEvents(mustParse(t, fmt.Sprintf("time >= %d and time < %d", mid.Unix(), mid.Add(10*24*time.Hour).Unix())))
	if err != nil {
		t.Fatal(err)
	}
	rack, err := probe.SelectEvents(mustParse(t, "rack == R00"))
	if err != nil {
		t.Fatal(err)
	}
	sparse, dense := bitmap.New(), bitmap.New()
	for i := 0; i < jv.N; i++ {
		if i%11 == 0 || i >= named {
			sparse.Add(uint32(i))
		}
		if i%4 != 0 {
			dense.Add(uint32(i))
		}
	}
	eventSels := []struct {
		name string
		b    *bitmap.Bitmap
	}{{"nil", nil}, {"empty", bitmap.New()}, {"all FATAL", allFatal}, {"window", window}, {"rack", rack}}
	jobSels := []struct {
		name string
		b    *bitmap.Bitmap
	}{{"nil", nil}, {"sparse", sparse}, {"dense", dense}}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		d := fresh()
		p, err := d.FusedScan(workers)
		if err != nil {
			t.Fatal(err)
		}
		want := p.Exit
		want.SystemCause = kernelCount(d, nil, nil, workers)
		want.UserCaused = want.Failed - want.SystemCause
		if p.Joint != want {
			t.Errorf("workers=%d whole table: joint %+v, kernel gives %+v", workers, p.Joint, want)
		}
		w, err := d.wholeTable(workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, js := range jobSels {
			for _, es := range eventSels {
				if got, want := w.joint.count(js.b, es.b), kernelCount(d, js.b, es.b, workers); got != want {
					t.Errorf("workers=%d jobs=%s events=%s: joint count %d, kernel gives %d", workers, js.name, es.name, got, want)
				}
				if avg := testing.AllocsPerRun(5, func() { w.joint.count(js.b, es.b) }); avg != 0 {
					t.Errorf("jobs=%s events=%s: the joint count allocates %.1f times", js.name, es.name, avg)
				}
			}
		}
	}
}
