package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/bitmap"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// FusedProfile is the result of one fused pass over the job and event
// columns: every whole-corpus aggregate the hot experiments consume, each
// equal bit for bit to a one-analysis walk over the records (the reference
// walks in walks_oracle_test.go).
type FusedProfile struct {
	jv *scan.JobView
	// jobSel is the cohort's job selection when the profile came from
	// FusedScanWhere; nil means the whole corpus.
	jobSel *bitmap.Bitmap

	Summary Summary
	// Exit and Joint are the exit-status-only and RAS-correlated failure
	// tallies.
	Exit  FailTally
	Joint FailTally
	// UserGroups / ProjectGroups are the per-key aggregates, jobs
	// descending, key ascending.
	UserGroups    []GroupStats
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

// cramersV is stats.CramersV of the selected jobs' key and outcome
// columns, computed from the 2×G table the group tally already holds: each
// key's successes and failures. χ² is summed in the string path's cell
// order, so the result matches it bit for bit: keys in first-appearance
// order among the selected jobs (for the whole table, dictionary order, as
// the view interns keys in first-appearance order), outcomes in the order
// the first selected job fixes. It is called only with ≥ 2 groups.
func (p *FusedProfile) cramersV(by GroupBy) float64 {
	v, s, ids := p.jv, p.userTally, p.jv.UserID
	if by == ByProject {
		s, ids = p.projTally, v.ProjectID
	}
	var rows []int32
	first := 0 // the first selected job
	if p.jobSel == nil {
		for id, n := range s.jobs {
			if n > 0 {
				rows = append(rows, int32(id))
			}
		}
	} else {
		seen := make([]bool, len(s.jobs))
		forEachSelected(p.jobSel, v.N, func(i int) {
			if len(rows) == 0 {
				first = i
			}
			if id := ids[i]; !seen[id] {
				seen[id] = true
				rows = append(rows, id)
			}
		})
	}
	failedFirst := v.Family[first] != 0
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
// which is also the order of the merged states scan.Run returns.
const (
	kFamilies = iota
	kUsers
	kProjects
	kTemporalJobs // last: wholeTable appends a second temporal state
)

const (
	kSeverities = iota
	kCategories
	kComponents
	kMidplanes
	kRacks
	kTemporalFatals
)

func fusedJobKernels(jv *scan.JobView, tk *temporalJobKernel) []JobKernel {
	return []JobKernel{
		&tallyKernel[uint8]{"family", joblog.NumFamilies, func(v *scan.JobView) []uint8 { return v.Family }},
		&tallyKernel[int32]{"user", len(jv.Users), func(v *scan.JobView) []int32 { return v.UserID }},
		&tallyKernel[int32]{"project", len(jv.Projects), func(v *scan.JobView) []int32 { return v.ProjectID }},
		tk,
	}
}

func fusedEventKernels(ev *scan.EventView, monthCap int) []EventKernel {
	return []EventKernel{
		&countKernel[uint8]{"severity", int(raslog.Fatal) + 1, func(v *scan.EventView) []uint8 { return v.Sev }},
		&countKernel[int32]{"category", len(ev.Cats), func(v *scan.EventView) []int32 { return v.CatID }},
		&countKernel[int32]{"component", len(ev.Comps), func(v *scan.EventView) []int32 { return v.CompID }},
		&countKernel[int32]{"midplane", machine.TotalMidplanes, func(v *scan.EventView) []int32 { return v.MidplaneID }},
		&countKernel[int32]{"rack", machine.NumRacks, func(v *scan.EventView) []int32 { return v.RackID }},
		&temporalEventKernel{monthCap: monthCap},
	}
}

// wholeScan is a Dataset's memoized whole-table scan state: the merged
// state of every fused kernel over all rows, the joint attribution index,
// and the job-side span extremes. States are read-only once built; the
// finishing step only reads them.
type wholeScan struct {
	joint  *jointIndex
	jobs   []JobState   // indexed by the kFamilies… job slots
	events []EventState // indexed by the kSeverities… event slots
	// jobStart/jobEnd are the earliest submit and latest end over all
	// jobs in Unix seconds, the seed of NewDataset's span walk before the
	// events.
	jobStart, jobEnd int64
	// temporal holds all-jobs temporal states binned from the dataset's
	// start and, when it differs, from jobStart: the start of every
	// cohort that selects all jobs and no event before the first submit.
	temporal []*temporalJobState
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
		w.jobStart, w.jobEnd, _ = d.jobExtremes(nil)
		tk := newTemporalJobKernel(d)
		kernels := fusedJobKernels(jv, tk)
		if w.jobStart != tk.startUnix {
			kernels = append(kernels, newTemporalJobKernelSpan(w.jobStart, w.jobEnd))
		}
		sts, err := scan.Run(jv, jv.N, nil, kernels, workers)
		if err != nil {
			return w, err
		}
		w.jobs = sts[:kTemporalJobs+1]
		for _, st := range sts[kTemporalJobs:] {
			w.temporal = append(w.temporal, st.(*temporalJobState))
		}
		w.events, err = scan.Run(ev, ev.N, nil, fusedEventKernels(ev, tk.monthCap), workers)
		return w, err
	})
}

// temporalFrom returns the memoized all-jobs temporal state whose day bins
// start at startUnix, or nil.
func (w *wholeScan) temporalFrom(startUnix int64) *temporalJobState {
	for _, st := range w.temporal {
		if st.k.startUnix == startUnix {
			return st
		}
	}
	return nil
}

// jobExtremes returns the earliest submit and latest end, in Unix seconds,
// over the selected jobs (nil = all); ok is false for an empty selection.
func (d *Dataset) jobExtremes(jobSel *bitmap.Bitmap) (start, end int64, ok bool) {
	jv := d.JobView()
	forEachSelected(jobSel, jv.N, func(i int) {
		if !ok {
			start, end, ok = jv.SubmitUnix[i], jv.EndUnix[i], true
			return
		}
		start = min(start, jv.SubmitUnix[i])
		end = max(end, jv.EndUnix[i])
	})
	return start, end, ok
}

// FusedScan runs every registered aggregation kernel over the job and event
// column views in one pass each, fanned out over at most workers goroutines
// (≤ 0 means GOMAXPROCS). Results are bit-identical to the reference
// per-analysis walks at any worker count. The merged kernel states are
// memoized per Dataset, so only the first call scans; later calls (and
// the unconstrained side of every cohort scan) reuse them.
func (d *Dataset) FusedScan(workers int) (*FusedProfile, error) {
	return d.fusedScanSel(nil, nil, workers)
}

// fusedScanSel runs the fused kernels restricted to the given row
// selections (nil = all rows on that side). A nil side takes its states
// from the whole-table memo; only the temporal job bins, whose state
// depends on the span, may re-run over the whole job table, and the joint
// tally is counted from the memo's attribution index (DESIGN.md §14).
func (d *Dataset) fusedScanSel(jobSel, eventSel *bitmap.Bitmap, workers int) (*FusedProfile, error) {
	w, err := d.wholeTable(workers)
	if err != nil {
		return nil, err
	}
	jv, ev := d.JobView(), d.EventView()
	// The temporal kernel and Summary.Days depend on the observation span,
	// which for a cohort is the span NewDataset would derive from the
	// selected records, so day bins line up exactly with a materialized
	// dataset's.
	start, end := d.cohortSpan(w, jobSel, eventSel)
	tk := newTemporalJobKernelSpan(start, end)

	ests := w.events
	if eventSel != nil {
		if ests, err = scan.Run(ev, ev.N, eventSel, fusedEventKernels(ev, tk.monthCap), workers); err != nil {
			return nil, err
		}
	}
	kernels := fusedJobKernels(jv, tk)
	var jsts []JobState
	if jobSel != nil {
		if jsts, err = scan.Run(jv, jv.N, jobSel, kernels, workers); err != nil {
			return nil, err
		}
	} else {
		// Every job: only the temporal bins, which read the span's start,
		// can differ from the memo.
		jsts = append([]JobState(nil), w.jobs...)
		if ts := w.temporalFrom(tk.startUnix); ts != nil {
			jsts[kTemporalJobs] = ts
		} else {
			sts, err := scan.Run(jv, jv.N, nil, kernels[kTemporalJobs:], workers)
			if err != nil {
				return nil, err
			}
			jsts[kTemporalJobs] = sts[0]
		}
	}
	return d.finishProfile(jobSel, jsts, ests, w.joint.count(jobSel, eventSel), start, end), nil
}

// finishProfile assembles a profile from merged kernel states and the
// cohort's count of system-caused failures. It only reads the states, so
// memoized ones can be finished any number of times.
func (d *Dataset) finishProfile(jobSel *bitmap.Bitmap, jsts []JobState, ests []EventState, sysFails int, start, end int64) *FusedProfile {
	jv, ev := d.JobView(), d.EventView()
	p := &FusedProfile{jv: jv, jobSel: jobSel}
	fams := familyTotalsOf(jsts[kFamilies].(*tallyState[uint8]))
	nJobs, nTasks, nIO := d.cohortJobCounts(jobSel)
	p.Exit = fams.exit()
	p.Joint = p.Exit
	p.Joint.SystemCause = sysFails
	p.Joint.UserCaused = p.Joint.Failed - p.Joint.SystemCause
	p.userTally = jsts[kUsers].(*tallyState[int32])
	p.projTally = jsts[kProjects].(*tallyState[int32])
	p.UserGroups = p.userTally.groups(jv.Users)
	p.ProjectGroups = p.projTally.groups(jv.Projects)
	p.Waste = fams.waste()
	p.Temporal = finishTemporal(jsts[kTemporalJobs].(*temporalJobState), ests[kTemporalFatals].(*temporalEventState))
	p.RAS = rasProfile(ests[kSeverities].(*countState[uint8]), ests[kCategories].(*countState[int32]), ests[kComponents].(*countState[int32]), ev)
	p.localityMid, p.localityMidErr = ests[kMidplanes].(*countState[int32]).locality(machine.LevelMidplane)
	p.localityRack, p.localityRackErr = ests[kRacks].(*countState[int32]).locality(machine.LevelRack)
	p.Interrupts, p.InterruptsErr = interruptsFromGroups(p.UserGroups)
	fatal, warn := p.RAS.BySeverity[raslog.Fatal], p.RAS.BySeverity[raslog.Warn]
	p.Summary = Summary{
		Days:        (time.Duration(end-start) * time.Second).Hours() / 24,
		Jobs:        nJobs,
		Tasks:       nTasks,
		Users:       len(p.UserGroups),
		Projects:    len(p.ProjectGroups),
		CoreHours:   float64(fams.totalCoreSec()) / 3600,
		RASTotal:    p.RAS.Total,
		RASFatal:    fatal,
		RASWarn:     warn,
		RASInfo:     p.RAS.Total - fatal - warn,
		IORecords:   nIO,
		FailedJobs:  p.Exit.Failed,
		SuccessJobs: fams.jobs[0],
	}
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
