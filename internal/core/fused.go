package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// Cohort is the narrow result of a cohort scan (FusedScanWhere): the
// Table-I summary of the selected records, their exit-family failure
// tally and their per-user groups, which is all the cohort surfaces print
// (experiments.RenderCohort). Each field equals bit for bit the same field
// of FusedScan over the materialized cohort. A Cohort is read-only: a
// cohort with an unconstrained job side shares its user groups with the
// dataset's whole-table memo.
type Cohort struct {
	Summary Summary
	// Exit is the exit-status-only failure tally.
	Exit FailTally
	// UserGroups are the per-user aggregates, jobs descending, key
	// ascending.
	UserGroups []GroupStats
}

// FusedProfile is the result of one fused pass over the job and event
// columns: every whole-corpus aggregate the hot experiments consume, each
// equal bit for bit to a one-analysis walk over the records (the reference
// walks in walks_oracle_test.go). Its embedded Cohort is the whole
// corpus's. Like a Cohort it is read-only: its user groups are the
// whole-table memo's.
type FusedProfile struct {
	Cohort
	jv *scan.JobView

	// Joint is the RAS-correlated failure tally.
	Joint FailTally
	// ProjectGroups are the per-project aggregates, ordered as UserGroups.
	ProjectGroups []GroupStats
	Temporal      *TemporalProfile
	RAS           *CategoryProfile
	Waste         *WasteResult
	Interrupts    *InterruptCorrelation
	InterruptsErr error

	localityMid, localityRack       *LocalityResult
	localityMidErr, localityRackErr error
	// userTally / projTally are the per-key counts behind the groups.
	userTally, projTally *tallyState[int32]
}

// Groups returns the per-user or per-project aggregates.
func (p *FusedProfile) Groups(by GroupBy) []GroupStats {
	if by == ByProject {
		return p.ProjectGroups
	}
	return p.UserGroups
}

// Locality returns the FATAL spatial-concentration result at the level.
func (p *FusedProfile) Locality(level machine.Level) (*LocalityResult, error) {
	switch level {
	case machine.LevelMidplane:
		return p.localityMid, p.localityMidErr
	case machine.LevelRack:
		return p.localityRack, p.localityRackErr
	default:
		return nil, fmt.Errorf("core: locality level must be rack or midplane, got %v", level)
	}
}

// Concentration computes the concentration/correlation profile for the
// grouping from the fused aggregates.
func (p *FusedProfile) Concentration(by GroupBy) (*ConcentrationResult, error) {
	res, err := concentrationFromGroups(by, p.Groups(by))
	if err != nil {
		return nil, err
	}
	res.CramersV = p.cramersV(by)
	return res, nil
}

// cramersV is stats.CramersV of the key and outcome columns, computed
// from the 2×G table the group tally already holds: each key's successes
// and failures. χ² is summed in the string path's cell order, so the
// result matches it bit for bit: keys in dictionary order (the view
// interns keys in first-appearance order), outcomes in the order the
// first job fixes. It is called only with ≥ 2 groups.
func (p *FusedProfile) cramersV(by GroupBy) float64 {
	s := p.userTally
	if by == ByProject {
		s = p.projTally
	}
	var rows []int32
	for id, n := range s.jobs {
		if n > 0 {
			rows = append(rows, int32(id))
		}
	}
	failedFirst := p.jv.Family[0] != 0
	cells := func(id int32) [2]float64 {
		if failedFirst {
			return [2]float64{float64(s.failed[id]), float64(s.jobs[id] - s.failed[id])}
		}
		return [2]float64{float64(s.jobs[id] - s.failed[id]), float64(s.failed[id])}
	}
	var col [2]float64
	for _, id := range rows {
		c := cells(id)
		col[0], col[1] = col[0]+c[0], col[1]+c[1]
	}
	if col[0] == 0 || col[1] == 0 { // one outcome: min(rows, cols) - 1 is zero
		return 0
	}
	total, chi2 := col[0]+col[1], 0.0
	for _, id := range rows {
		c, rowSum := cells(id), float64(s.jobs[id])
		for j := range c {
			expected := rowSum * col[j] / total
			d := c[j] - expected
			chi2 += d * d / expected
		}
	}
	return math.Sqrt(chi2 / total)
}

// Kernel slots: the fused job and event kernels in registration order,
// which is also the order of the merged states scan.Run returns. A cohort
// scan registers only the leading cohort kernels.
const (
	kFamilies = iota
	kUsers
	kProjects
	kTemporalJobs
)

const (
	kSeverities = iota
	kCategories
	kComponents
	kMidplanes
	kRacks
	kTemporalFatals
)

// cohortJobKernels are the job kernels a Cohort reads: the family and
// user tallies.
func cohortJobKernels(jv *scan.JobView) []JobKernel {
	return []JobKernel{
		&tallyKernel[uint8]{"family", joblog.NumFamilies, func(v *scan.JobView) []uint8 { return v.Family }},
		&tallyKernel[int32]{"user", len(jv.Users), func(v *scan.JobView) []int32 { return v.UserID }},
	}
}

// cohortEventKernels are the event kernels a Cohort reads: the severity
// count.
func cohortEventKernels() []EventKernel {
	return []EventKernel{
		&countKernel[uint8]{"severity", int(raslog.Fatal) + 1, func(v *scan.EventView) []uint8 { return v.Sev }},
	}
}

func fusedJobKernels(jv *scan.JobView, tk *temporalJobKernel) []JobKernel {
	return append(cohortJobKernels(jv),
		&tallyKernel[int32]{"project", len(jv.Projects), func(v *scan.JobView) []int32 { return v.ProjectID }},
		tk,
	)
}

func fusedEventKernels(ev *scan.EventView, monthCap int) []EventKernel {
	return append(cohortEventKernels(),
		&countKernel[int32]{"category", len(ev.Cats), func(v *scan.EventView) []int32 { return v.CatID }},
		&countKernel[int32]{"component", len(ev.Comps), func(v *scan.EventView) []int32 { return v.CompID }},
		&countKernel[int32]{"midplane", machine.TotalMidplanes, func(v *scan.EventView) []int32 { return v.MidplaneID }},
		&countKernel[int32]{"rack", machine.NumRacks, func(v *scan.EventView) []int32 { return v.RackID }},
		&temporalEventKernel{monthCap: monthCap},
	)
}

// wholeScan is a Dataset's memoized whole-table scan state: the merged
// state of every fused kernel over all rows, the joint attribution index,
// and the job half every cohort with an unconstrained job side shares.
// States are read-only once built; the finishing step only reads them.
type wholeScan struct {
	joint   *jointIndex
	jobs    []JobState   // indexed by the kFamilies… job slots
	events  []EventState // indexed by the kSeverities… event slots
	allJobs jobSide      // every job; its user groups sorted once
}

// jobSide is the job half of a cohort: its family totals, its user groups
// and what the walk over its jobs counts.
type jobSide struct {
	fams  familyTotals
	users []GroupStats
	walk  jobWalk
}

// jobWalk is what one walk over a cohort's jobs yields besides the kernel
// tallies: the Summary rows a materialized dataset would report, and the
// job-side seed of NewDataset's span walk.
type jobWalk struct {
	jobs, tasks, io, projects int
	// start and end are the earliest submit and latest end in Unix
	// seconds; ok is false while no job has been seen.
	start, end int64
	ok         bool
}

// widen folds one job's submit and end into the extremes.
func (w *jobWalk) widen(submit, end int64) {
	if !w.ok {
		w.start, w.end, w.ok = submit, end, true
		return
	}
	w.start = min(w.start, submit)
	w.end = max(w.end, end)
}

// testHookWholeScan, when set, is called each time a Dataset builds its
// whole-table scan state.
var testHookWholeScan func(*Dataset)

// wholeTable returns the dataset's whole-table scan state, running the
// fused kernels over every row on first use (fanned out over workers).
func (d *Dataset) wholeTable(workers int) (*wholeScan, error) {
	return d.whole.Get(func() (*wholeScan, error) {
		if testHookWholeScan != nil {
			testHookWholeScan(d)
		}
		jv, ev := d.JobView(), d.EventView()
		w := &wholeScan{joint: newJointIndex(d)}
		tk := newTemporalJobKernel(d)
		var err error
		if w.jobs, err = scan.Run(jv, jv.N, nil, fusedJobKernels(jv, tk), workers); err != nil {
			return w, err
		}
		if w.events, err = scan.Run(ev, ev.N, nil, fusedEventKernels(ev, tk.monthCap), workers); err != nil {
			return w, err
		}
		w.allJobs = d.wholeJobSide(w.jobs)
		return w, nil
	})
}

// wholeJobSide is the job half of a cohort holding every job, finished
// from merged whole-table job states.
func (d *Dataset) wholeJobSide(jsts []JobState) jobSide {
	jv := d.JobView()
	js := jobSide{
		fams:  familyTotalsOf(jsts[kFamilies].(*tallyState[uint8])),
		users: jsts[kUsers].(*tallyState[int32]).groups(jv.Users),
		walk:  jobWalk{jobs: jv.N, tasks: d.taskView.N, io: len(d.IO)},
	}
	for i := 0; i < jv.N; i++ {
		js.walk.widen(jv.SubmitUnix[i], jv.EndUnix[i])
	}
	for _, n := range jsts[kProjects].(*tallyState[int32]).jobs {
		if n > 0 {
			js.walk.projects++
		}
	}
	return js
}

// FusedScan runs every registered aggregation kernel over the job and event
// column views in one pass each, fanned out over at most workers goroutines
// (≤ 0 means GOMAXPROCS). Results are bit-identical to the reference
// per-analysis walks at any worker count. The merged kernel states are
// memoized per Dataset, so only the first call scans; later calls (and
// the unconstrained side of every cohort scan) reuse them.
func (d *Dataset) FusedScan(workers int) (*FusedProfile, error) {
	w, err := d.wholeTable(workers)
	if err != nil {
		return nil, err
	}
	start, end := d.Span()
	return d.finishProfile(w.allJobs, w.jobs, w.events, w.joint.count(nil, nil), start.Unix(), end.Unix()), nil
}

// newCohort assembles a Cohort from its job half, the severity counts of
// its events and its observation span in Unix seconds.
func newCohort(js jobSide, sev *countState[uint8], start, end int64) Cohort {
	var bySev [raslog.Fatal + 1]int
	total := 0
	for s, c := range sev.keys() {
		bySev[s] = int(c[0])
		total += int(c[0])
	}
	c := Cohort{Exit: js.fams.exit(), UserGroups: js.users}
	fatal, warn := bySev[raslog.Fatal], bySev[raslog.Warn]
	c.Summary = Summary{
		Days:        (time.Duration(end-start) * time.Second).Hours() / 24,
		Jobs:        js.walk.jobs,
		Tasks:       js.walk.tasks,
		Users:       len(js.users),
		Projects:    js.walk.projects,
		CoreHours:   float64(js.fams.totalCoreSec()) / 3600,
		RASTotal:    total,
		RASFatal:    fatal,
		RASWarn:     warn,
		RASInfo:     total - fatal - warn,
		IORecords:   js.walk.io,
		FailedJobs:  c.Exit.Failed,
		SuccessJobs: js.fams.jobs[0],
	}
	return c
}

// finishProfile assembles a profile from its job half, merged kernel
// states and the count of system-caused failures. It only reads the
// states, so memoized ones can be finished any number of times.
func (d *Dataset) finishProfile(js jobSide, jsts []JobState, ests []EventState, sysFails int, start, end int64) *FusedProfile {
	jv, ev := d.JobView(), d.EventView()
	p := &FusedProfile{Cohort: newCohort(js, ests[kSeverities].(*countState[uint8]), start, end), jv: jv}
	p.Joint = p.Exit
	p.Joint.SystemCause = sysFails
	p.Joint.UserCaused = p.Joint.Failed - p.Joint.SystemCause
	p.userTally = jsts[kUsers].(*tallyState[int32])
	p.projTally = jsts[kProjects].(*tallyState[int32])
	p.ProjectGroups = p.projTally.groups(jv.Projects)
	p.Waste = js.fams.waste()
	p.Temporal = finishTemporal(jsts[kTemporalJobs].(*temporalJobState), ests[kTemporalFatals].(*temporalEventState))
	p.RAS = rasProfile(ests[kSeverities].(*countState[uint8]), ests[kCategories].(*countState[int32]), ests[kComponents].(*countState[int32]), ev)
	p.localityMid, p.localityMidErr = ests[kMidplanes].(*countState[int32]).locality(machine.LevelMidplane)
	p.localityRack, p.localityRackErr = ests[kRacks].(*countState[int32]).locality(machine.LevelRack)
	p.Interrupts, p.InterruptsErr = interruptsFromGroups(p.UserGroups)
	return p
}

// finishTemporal combines the job- and event-side temporal states into one
// profile. The reference walk visits jobs first, then FATAL events, so
// the month list is the job months in first-appearance order followed by
// event-only months.
func finishTemporal(js *temporalJobState, es *temporalEventState) *TemporalProfile {
	p := &TemporalProfile{
		JobsByHour:     js.jobsHour,
		FailsByHour:    js.failsHour,
		JobsByWeekday:  js.jobsWd,
		FailsByWeekday: js.failsWd,
		FatalByHour:    es.fatalHour,
		// A copy, so the memoized state stays read-only, and never nil,
		// even for a cohort without jobs.
		JobsByDay: append(make([]int, 0, len(js.jobsDay)), js.jobsDay...),
	}
	idx := make(map[int32]int, len(js.months.yms)+len(es.months.yms))
	for i, ym := range js.months.yms {
		idx[ym] = i
		p.Months = append(p.Months, ymLabel(ym))
		p.JobsByMonth = append(p.JobsByMonth, js.months.counts[i][0])
		p.FailsByMonth = append(p.FailsByMonth, js.months.counts[i][1])
		p.FatalByMonth = append(p.FatalByMonth, 0)
	}
	for i, ym := range es.months.yms {
		j, ok := idx[ym]
		if !ok {
			j = len(p.Months)
			idx[ym] = j
			p.Months = append(p.Months, ymLabel(ym))
			p.JobsByMonth = append(p.JobsByMonth, 0)
			p.FailsByMonth = append(p.FailsByMonth, 0)
			p.FatalByMonth = append(p.FatalByMonth, 0)
		}
		p.FatalByMonth[j] += es.months.counts[i][0]
	}
	return p
}

// interruptsFromGroups computes the E15 interruption-vs-consumption
// correlation from per-user aggregates (system attribution already folded
// into SystemFails).
func interruptsFromGroups(userGroups []GroupStats) (*InterruptCorrelation, error) {
	if len(userGroups) < 3 {
		return nil, fmt.Errorf("core: need ≥3 users, have %d", len(userGroups))
	}
	sorted := append([]GroupStats(nil), userGroups...)
	sortGroupsByKey(sorted)
	ch := make([]float64, len(sorted))
	jobs := make([]float64, len(sorted))
	ints := make([]float64, len(sorted))
	for i := range sorted {
		ch[i] = sorted[i].CoreHours
		jobs[i] = float64(sorted[i].Jobs)
		ints[i] = float64(sorted[i].SystemFails)
	}
	return interruptCorrelationFrom(ch, jobs, ints)
}
