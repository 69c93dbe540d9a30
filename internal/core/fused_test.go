package core

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
	"repro/internal/sel"
)

// TestFusedScanMatchesLegacy pins the fused engine's equivalence: every
// aggregate the single-pass engine produces deep-equals the dedicated
// per-analysis walk (walks_oracle_test.go), at 1, 4 and GOMAXPROCS workers.
// Each worker count scans a cold Dataset, since FusedScan memoizes its
// kernel states per Dataset.
func TestFusedScanMatchesLegacy(t *testing.T) {
	d, _ := dataset(t)
	cls := d.ClassifyByExit()
	joint := d.ClassifyJoint(DefaultJointOptions())
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		p, err := freshDataset(t).FusedScan(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := p.Summary, d.Summarize(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: summary: fused %+v, legacy %+v", workers, got, want)
		}
		if got, want := p.Exit, TallyOf(cls); got != want {
			t.Errorf("workers=%d: exit tally: fused %+v, legacy %+v", workers, got, want)
		}
		if got, want := p.Joint, TallyOf(joint); got != want {
			t.Errorf("workers=%d: joint tally: fused %+v, legacy %+v", workers, got, want)
		}
		for _, by := range []GroupBy{ByUser, ByProject} {
			if got, want := p.Groups(by), d.Aggregate(by, cls); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: groups by %s differ", workers, by)
			}
			got, err := p.Concentration(by)
			if err != nil {
				t.Fatal(err)
			}
			want, err := d.Concentration(by, cls)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: concentration by %s: fused %+v, legacy %+v", workers, by, got, want)
			}
		}
		if got, want := p.Temporal, d.Temporal(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: temporal profile differs", workers)
		}
		if got, want := p.RAS, d.Profile(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: RAS profile differs", workers)
		}
		{
			got := p.Waste
			want, err := d.Waste(cls)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: waste: fused %+v, legacy %+v", workers, got, want)
			}
		}
		{
			got, gotErr := p.Interrupts, p.InterruptsErr
			want, wantErr := d.InterruptsByUser(cls)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("workers=%d: interrupts err: fused %v, legacy %v", workers, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: interrupts: fused %+v, legacy %+v", workers, got, want)
			}
		}
		for _, level := range []machine.Level{machine.LevelMidplane, machine.LevelRack} {
			got, gotErr := p.Locality(level)
			want, wantErr := d.Locality(level)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("workers=%d: locality %v err: fused %v, legacy %v", workers, level, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: locality at %v differs", workers, level)
			}
		}
	}
}

// TestFusedScanPreEpoch pins the calendar math of the temporal kernels
// for instants before 1970, where truncating division would put the hour,
// weekday and month of a timestamp on the wrong side of midnight: the
// fused Temporal must equal the time.Time walk.
func TestFusedScanPreEpoch(t *testing.T) {
	job := func(id int64, submit time.Time, exit int) joblog.Job {
		return joblog.Job{
			ID: id, User: "u1", Project: "p", Queue: "q",
			Submit: submit, Start: submit, End: submit.Add(10 * time.Minute),
			WalltimeReq: time.Hour, Nodes: 512, RanksPerNode: 16, NumTasks: 1,
			ExitStatus: exit,
		}
	}
	jobs := []joblog.Job{
		job(1, time.Date(1968, 2, 29, 12, 0, 0, 0, time.UTC), 1),
		job(2, time.Date(1969, 12, 31, 0, 0, 0, 0, time.UTC), 0),
		job(3, time.Date(1969, 12, 31, 19, 0, 0, 0, time.UTC), 1),
		job(4, time.Date(1970, 1, 1, 2, 0, 0, 0, time.UTC), 0),
	}
	loc, err := machine.MidplaneByID(3)
	if err != nil {
		t.Fatal(err)
	}
	events := []raslog.Event{{
		RecID: 1, MsgID: "00140004", Comp: raslog.CompMMCS, Cat: raslog.CatSoftware,
		Sev: raslog.Fatal, Time: time.Date(1969, 12, 31, 21, 30, 0, 0, time.UTC),
		Loc: loc, Count: 1, Message: "x",
	}}
	for _, workers := range []int{1, 4} {
		d, err := NewDataset(jobs, nil, events, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.FusedScan(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got, want := p.Temporal, d.Temporal(); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: temporal profile:\n fused %+v\nwalk  %+v", workers, got, want)
		}
	}
}

// TestFilterCachedMatchesPlain pins the memoized Dataset filter to the
// reference fold: identical incidents for every equivRules configuration
// and both severities. Each rule is filtered twice, so the second call
// reads the key memo the first one built.
func TestFilterCachedMatchesPlain(t *testing.T) {
	// A private dataset, so this test starts from a cold key memo.
	_, c := dataset(t)
	d, err := NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	events := d.EventRecords()
	for _, rule := range equivRules() {
		for _, sev := range []struct {
			sev    raslog.Severity
			filter func(FilterRule) (Incidents, error)
		}{
			{raslog.Fatal, d.FilterFatal},
			{raslog.Warn, d.FilterWarn},
		} {
			want, err := referenceFilterBySeverity(events, sev.sev, rule)
			if err != nil {
				t.Fatal(err)
			}
			for call := 0; call < 2; call++ {
				got, err := sev.filter(rule)
				if err != nil {
					t.Fatal(err)
				}
				if diff := incidentsDiff(events, got, want); diff != "" {
					t.Fatalf("%v rule %+v call %d: memoized filter differs from the reference: %s", sev.sev, rule, call, diff)
				}
			}
		}
	}
	if _, err := d.FilterFatal(FilterRule{Window: -1}); err == nil {
		t.Error("invalid rule accepted")
	}
}

// TestIncidentConsumersMatchReference pins E16's LeadTimeSweep and E21's
// SpatialCorrelationIncidents over the corpus's default-rule incident
// columns to their row oracles, at every lead-time level and at two
// windows and three lookbacks each.
func TestIncidentConsumersMatchReference(t *testing.T) {
	d, _ := dataset(t)
	rule := DefaultFilterRule()
	fatals, err := d.FilterFatal(rule)
	if err != nil {
		t.Fatal(err)
	}
	warns, err := d.FilterWarn(rule)
	if err != nil {
		t.Fatal(err)
	}
	events := d.EventRecords()
	refFatals, err := referenceFilterBySeverity(events, raslog.Fatal, rule)
	if err != nil {
		t.Fatal(err)
	}
	refWarns, err := referenceFilterBySeverity(events, raslog.Warn, rule)
	if err != nil {
		t.Fatal(err)
	}
	checkIncidentConsumers(t, d, fatals, warns, refFatals, refWarns)
}

// TestLeadTimeSweepMatchesLeadTime pins the E16 sweep: evaluating several
// lookbacks at once matches a one-option sweep per lookback exactly.
func TestLeadTimeSweepMatchesLeadTime(t *testing.T) {
	d, _ := dataset(t)
	rule := DefaultFilterRule()
	fatals, err := d.FilterFatal(rule)
	if err != nil {
		t.Fatal(err)
	}
	warns, err := d.FilterWarn(rule)
	if err != nil {
		t.Fatal(err)
	}
	lookbacks := []time.Duration{time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour}
	opts := make([]LeadTimeOptions, len(lookbacks))
	for i, lb := range lookbacks {
		opts[i] = DefaultLeadTimeOptions()
		opts[i].Lookback = lb
	}
	swept, err := d.LeadTimeSweep(fatals, warns, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, opt := range opts {
		want, err := d.LeadTimeSweep(fatals, warns, []LeadTimeOptions{opt})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(swept[i], want[0]) {
			t.Errorf("lookback %v: sweep %+v, single %+v", lookbacks[i], swept[i], want[0])
		}
	}
	if _, err := d.LeadTimeSweep(fatals, warns, nil); err == nil {
		t.Error("empty option list accepted")
	}
	mixed := []LeadTimeOptions{
		{Lookback: time.Hour, Level: machine.LevelRack},
		{Lookback: time.Hour, Level: machine.LevelNode},
	}
	if _, err := d.LeadTimeSweep(fatals, warns, mixed); err == nil {
		t.Error("mixed spatial levels accepted")
	}
}

// TestViewBuildersMatchDataset pins the column views to the AoS records
// they were built from (the generated events are in time order), column
// by column, on a few spot rows plus the dictionaries.
func TestViewBuildersMatchDataset(t *testing.T) {
	d, c := dataset(t)
	jv := d.JobView()
	if jv.N != len(c.Jobs) {
		t.Fatalf("job view has %d rows for %d jobs", jv.N, len(c.Jobs))
	}
	for _, i := range []int{0, 1, jv.N / 2, jv.N - 1} {
		j := &c.Jobs[i]
		if jv.ID[i] != j.ID || jv.SubmitUnix[i] != j.Submit.Unix() || jv.StartUnix[i] != j.Start.Unix() || jv.EndUnix[i] != j.End.Unix() {
			t.Fatalf("row %d: id/time columns mismatch", i)
		}
		if jv.CoreSec[i] != j.CoreSeconds() {
			t.Fatalf("row %d: core-seconds %d, job says %d", i, jv.CoreSec[i], j.CoreSeconds())
		}
		if jv.CoreHours(i) != j.CoreHours() {
			t.Fatalf("row %d: core-hours %v, job says %v", i, jv.CoreHours(i), j.CoreHours())
		}
		if jv.Users[jv.UserID[i]] != j.User || jv.Projects[jv.ProjectID[i]] != j.Project || jv.Queues[jv.QueueID[i]] != j.Queue {
			t.Fatalf("row %d: dictionary mismatch", i)
		}
		if time.Duration(jv.WalltimeSec[i])*time.Second != j.WalltimeReq || int(jv.Nodes[i]) != j.Nodes ||
			int(jv.RanksPerNode[i]) != j.RanksPerNode || int(jv.NumTasks[i]) != j.NumTasks || int(jv.Exit[i]) != j.ExitStatus {
			t.Fatalf("row %d: walltime/nodes/ranks/tasks/exit mismatch", i)
		}
	}
	tv := d.TaskView()
	if tv.N != len(c.Tasks) {
		t.Fatalf("task view has %d rows for %d tasks", tv.N, len(c.Tasks))
	}
	for _, i := range []int{0, 1, tv.N / 2, tv.N - 1} {
		k := &c.Tasks[i]
		if tv.ID[i] != k.ID || tv.JobID[i] != k.JobID || uint32(tv.Block[i]) != k.Block.Code() ||
			tv.StartUnix[i] != k.Start.Unix() || tv.EndUnix[i] != k.End.Unix() ||
			int(tv.Nodes[i]) != k.Nodes || int(tv.Exit[i]) != k.ExitStatus {
			t.Fatalf("task row %d: column mismatch", i)
		}
	}
	ev := d.EventView()
	if ev.N != len(c.Events) {
		t.Fatalf("event view has %d rows for %d events", ev.N, len(c.Events))
	}
	for _, i := range []int{0, 1, ev.N / 2, ev.N - 1} {
		e := &c.Events[i]
		if ev.TimeUnix[i] != e.Time.Unix() || ev.Sev[i] != uint8(e.Sev) {
			t.Fatalf("event row %d: time/sev mismatch", i)
		}
		if string(ev.Cats[ev.CatID[i]]) != string(e.Cat) || string(ev.Comps[ev.CompID[i]]) != string(e.Comp) {
			t.Fatalf("event row %d: dictionary mismatch", i)
		}
		if ev.RecID[i] != e.RecID || ev.JobID[i] != e.JobID || ev.LocCode[i] != int32(e.Loc.Code()) || int(ev.Count[i]) != e.Count {
			t.Fatalf("event row %d: record id/job id/location/count mismatch", i)
		}
		if ev.MsgIDs[ev.MsgID[i]] != e.MsgID || ev.Messages[ev.Msg[i]] != e.Message {
			t.Fatalf("event row %d: message dictionary mismatch", i)
		}
		wantMid, wantRack := LocIDs(e.Loc)
		if ev.MidplaneID[i] != wantMid || ev.RackID[i] != wantRack {
			t.Fatalf("event row %d: location ids (%d,%d), want (%d,%d)",
				i, ev.MidplaneID[i], ev.RackID[i], wantMid, wantRack)
		}
	}
}

// TestKernelProcessBlockAllocFree pins the steady-state scan loops as
// allocation-free: after the warm-up pass, processing further blocks must
// not allocate for any kernel the fused scan registers.
func TestKernelProcessBlockAllocFree(t *testing.T) {
	d, _ := dataset(t)
	jv := d.JobView()
	ev := d.EventView()
	tk := newTemporalJobKernel(d)
	blk := scan.BlockRows
	for _, k := range fusedJobKernels(jv, tk) {
		st := k.NewState()
		hi := min(blk, jv.N)
		if avg := testing.AllocsPerRun(20, func() { st.ProcessBlock(jv, 0, hi) }); avg != 0 {
			t.Errorf("job kernel %s: %.1f allocs per block", k.Name(), avg)
		}
	}
	for _, k := range fusedEventKernels(ev, tk.monthCap) {
		st := k.NewState()
		hi := min(blk, ev.N)
		if avg := testing.AllocsPerRun(20, func() { st.ProcessBlock(ev, 0, hi) }); avg != 0 {
			t.Errorf("event kernel %s: %.1f allocs per block", k.Name(), avg)
		}
	}
}

// TestCramersVOutcomeOrder pins the outcome order of the tally-based
// Cramér's V. On this 2×4 table (successes, failures per user) χ² summed
// with the failure column first differs in the last bit from the success
// column first, so the fused value matches the string-column path only if
// it takes the column order from the first job: a failure for the whole
// table, and for the materialized cohort that drops the leading successful
// job of a fifth user.
func TestCramersVOutcomeOrder(t *testing.T) {
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	var jobs []joblog.Job
	add := func(user string, exit int) {
		at := base.Add(time.Duration(len(jobs)) * time.Hour)
		jobs = append(jobs, joblog.Job{ID: int64(len(jobs) + 1), User: user, Project: "p" + user,
			Submit: at, Start: at, End: at.Add(time.Hour), Nodes: 512, RanksPerNode: 16, NumTasks: 1, ExitStatus: exit})
	}
	cells := []struct {
		user           string
		success, fails int
	}{{"u0", 1, 1}, {"u1", 5, 1}, {"u2", 4, 3}, {"u3", 5, 0}}
	build := func(lead bool) *Dataset {
		jobs = jobs[:0]
		if lead {
			add("lead", 0)
		}
		for _, c := range cells {
			for i := 0; i < c.fails; i++ {
				add(c.user, 1)
			}
			for i := 0; i < c.success; i++ {
				add(c.user, 0)
			}
		}
		d, err := NewDataset(append([]joblog.Job(nil), jobs...), nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	check := func(name string, p *FusedProfile, d *Dataset) {
		t.Helper()
		got, err := p.Concentration(ByUser)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Concentration(ByUser, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.CramersV) != math.Float64bits(want.CramersV) {
			t.Errorf("%s: Cramér's V %v, string path %v", name, got.CramersV, want.CramersV)
		}
	}
	whole := build(false)
	p, err := whole.FusedScan(1)
	if err != nil {
		t.Fatal(err)
	}
	check("whole table", p, whole)

	expr, err := sel.Parse("user != lead")
	if err != nil {
		t.Fatal(err)
	}
	md, err := build(true).MaterializeWhere(expr)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := md.FusedScan(1)
	if err != nil {
		t.Fatal(err)
	}
	check("cohort", cp, whole)
}

// TestCohortConcentrationMatchesWalk pins a cohort's Concentration — the
// fused profile of its materialized dataset, as a Cohort carries no
// Cramér's V — to the walk over that dataset's string columns, and the
// pushdown Cohort's user groups to that profile's. The first cohort's
// first job succeeds, the second's fails, so both outcome orders are
// covered; the pushdown runs at 1, 4 and GOMAXPROCS workers.
func TestCohortConcentrationMatchesWalk(t *testing.T) {
	for _, c := range []struct {
		where       string
		by          GroupBy
		failedFirst bool
	}{
		{"nodes >= 2048", ByUser, false},
		{"exit != success or nodes >= 32768", ByProject, true},
	} {
		expr, err := sel.Parse(c.where)
		if err != nil {
			t.Fatal(err)
		}
		md, err := freshDataset(t).MaterializeWhere(expr)
		if err != nil {
			t.Fatal(err)
		}
		if got := md.JobView().Exit[0] != joblog.ExitSuccess; got != c.failedFirst {
			t.Fatalf("%s: first selected job failed = %v, want %v", c.where, got, c.failedFirst)
		}
		want, wantErr := md.Concentration(c.by, md.ClassifyByExit())
		mp, err := md.FusedScan(1)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := mp.Concentration(c.by)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, walk %v", c.where, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) || math.Float64bits(got.CramersV) != math.Float64bits(want.CramersV) {
			t.Errorf("%s: concentration by %s: fused %+v, walk %+v", c.where, c.by, got, want)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			p, err := freshDataset(t).FusedScanWhere(expr, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.UserGroups, mp.UserGroups) {
				t.Errorf("workers=%d %s: cohort user groups differ from the materialized profile's", workers, c.where)
			}
		}
	}
}
