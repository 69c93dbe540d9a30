package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/stats"
	"repro/internal/tasklog"
)

// The pre-fusion walks: one corpus pass per analysis, over the job and
// event records. FusedScan's profile replaced them in every shipped path;
// they stay here as the reference implementations its fields are compared
// with (fused_test.go), bit for bit, at several worker counts.

// Cause is the root-cause class of a job failure.
type Cause int

// Causes of job failure.
const (
	CauseNone   Cause = iota // job succeeded
	CauseUser                // bug, misconfiguration, misoperation
	CauseSystem              // hardware/system event interrupted the job
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseUser:
		return "user"
	case CauseSystem:
		return "system"
	default:
		return "unknown"
	}
}

// Classification is the per-job outcome attribution plus corpus totals —
// the paper's headline "99,245 failures, 99.4% user-caused" analysis.
type Classification struct {
	Causes      map[int64]Cause // job id → cause
	Total       int
	Failed      int
	UserCaused  int
	SystemCause int
	// ByFamily counts failed jobs per exit family.
	ByFamily map[joblog.ExitFamily]int
}

// UserShare returns the fraction of failures attributed to user behavior.
func (c *Classification) UserShare() float64 {
	if c.Failed == 0 {
		return 0
	}
	return float64(c.UserCaused) / float64(c.Failed)
}

// ClassifyByExit attributes each failed job by its exit status alone:
// scheduler-reserved statuses are system-caused, everything else
// user-caused. This is the scheduler-log-only view.
func (d *Dataset) ClassifyByExit() *Classification {
	jobs := d.JobRecords()
	c := &Classification{
		Causes:   make(map[int64]Cause, len(jobs)),
		ByFamily: make(map[joblog.ExitFamily]int),
	}
	for i := range jobs {
		j := &jobs[i]
		c.Total++
		if j.Outcome() == joblog.OutcomeSuccess {
			c.Causes[j.ID] = CauseNone
			continue
		}
		c.Failed++
		c.ByFamily[joblog.Family(j.ExitStatus)]++
		if joblog.Family(j.ExitStatus) == joblog.FamilySystem {
			c.Causes[j.ID] = CauseSystem
			c.SystemCause++
		} else {
			c.Causes[j.ID] = CauseUser
			c.UserCaused++
		}
	}
	return c
}

// ClassifyJoint attributes failures by joining the scheduling log with the
// RAS log: a failed job is system-caused if a FATAL event is directly
// attributed to it (matching job id) or strikes a block the job's tasks
// occupied within the tolerance of the job's end. This is the paper's
// multi-source methodology; on a corpus whose scheduler also reserves an
// exit status for block failures the two classifications should agree
// almost everywhere.
func (d *Dataset) ClassifyJoint(opt JointOptions) *Classification {
	jobs := d.JobRecords()
	tasksOf := tasksByJobID(d.TaskRecords())
	recs := d.EventRecords()
	if opt.Tolerance <= 0 {
		opt = DefaultJointOptions()
	}
	c := &Classification{
		Causes:   make(map[int64]Cause, len(jobs)),
		ByFamily: make(map[joblog.ExitFamily]int),
	}
	// FATAL events sorted by time (dataset guarantees order). Events
	// without a hardware location below system level cannot be tied to a
	// block and are excluded from proximity attribution — a service-node
	// failover touches every block "spatially" but kills none of them.
	var fatals []raslog.Event
	attributed := map[int64]bool{}
	for _, i := range d.fatalIdx {
		if id := recs[i].JobID; id != 0 {
			attributed[id] = true
		}
		if recs[i].Loc.Level() < machine.LevelRack {
			continue
		}
		fatals = append(fatals, recs[i])
	}
	times := make([]time.Time, len(fatals))
	for i := range fatals {
		times[i] = fatals[i].Time
	}

	for i := range jobs {
		j := &jobs[i]
		c.Total++
		if j.Outcome() == joblog.OutcomeSuccess {
			c.Causes[j.ID] = CauseNone
			continue
		}
		c.Failed++
		c.ByFamily[joblog.Family(j.ExitStatus)]++
		if attributed[j.ID] || fatalNearEnd(fatals, times, j, tasksOf[j.ID], opt.Tolerance) {
			c.Causes[j.ID] = CauseSystem
			c.SystemCause++
		} else {
			c.Causes[j.ID] = CauseUser
			c.UserCaused++
		}
	}
	return c
}

// fatalNearEnd reports whether a FATAL event within tol of the job's end
// intersects a block one of the job's tasks ran on.
func fatalNearEnd(fatals []raslog.Event, times []time.Time, j *joblog.Job, tasks []tasklog.Task, tol time.Duration) bool {
	if len(tasks) == 0 {
		return false
	}
	lo := sort.Search(len(times), func(i int) bool { return !times[i].Before(j.End.Add(-tol)) })
	for i := lo; i < len(fatals) && !times[i].After(j.End.Add(tol)); i++ {
		for k := range tasks {
			if tasks[k].Block.ContainsLocation(fatals[i].Loc) {
				return true
			}
		}
	}
	return false
}

// tasksByJobID groups task records by job id, each job's tasks in log
// order: a job whose tasks come in several runs gets them concatenated,
// and a task whose job id matches no job lists under that id.
func tasksByJobID(tasks []tasklog.Task) map[int64][]tasklog.Task {
	m := map[int64][]tasklog.Task{}
	for _, t := range tasks {
		m[t.JobID] = append(m[t.JobID], t)
	}
	return m
}

// jobByID returns the job record with the given id, rebuilt from the job
// view.
func jobByID(d *Dataset, id int64) (joblog.Job, bool) {
	for _, j := range d.JobRecords() {
		if j.ID == id {
			return j, true
		}
	}
	return joblog.Job{}, false
}

// TallyOf flattens a Classification into a FailTally.
func TallyOf(c *Classification) FailTally {
	t := FailTally{
		Total:       c.Total,
		Failed:      c.Failed,
		UserCaused:  c.UserCaused,
		SystemCause: c.SystemCause,
	}
	for _, f := range joblog.FailureFamilies() {
		t.ByFamily[joblog.FamilyCode(f)] = c.ByFamily[f]
	}
	return t
}

// Summarize computes the Table-I style dataset summary.
func (d *Dataset) Summarize() Summary {
	jobRecs := d.JobRecords()
	recs := d.EventRecords()
	s := Summary{
		Days:      d.Days(),
		Jobs:      len(jobRecs),
		Tasks:     len(d.TaskRecords()),
		IORecords: len(d.IO),
	}
	users := map[string]bool{}
	projects := map[string]bool{}
	// Core-hours accumulate as exact integer core-seconds (see
	// joblog.Job.CoreSeconds) so the total matches the fused scan engine's
	// sharded sum bit-for-bit regardless of summation order.
	var coreSec int64
	for i := range jobRecs {
		j := &jobRecs[i]
		users[j.User] = true
		projects[j.Project] = true
		coreSec += j.CoreSeconds()
		if j.Outcome() == joblog.OutcomeSuccess {
			s.SuccessJobs++
		} else {
			s.FailedJobs++
		}
	}
	s.CoreHours = float64(coreSec) / 3600
	s.Users = len(users)
	s.Projects = len(projects)
	// Severity tallies come straight from the partition indexes; no rescan.
	s.RASTotal = len(recs)
	s.RASFatal = len(d.fatalIdx)
	s.RASWarn = len(d.warnIdx)
	s.RASInfo = d.infoN
	return s
}

// Aggregate groups jobs by user or project, using the classification for
// system-failure attribution. Results are sorted by descending job count.
// Core-hours accumulate as integer core-seconds so the totals match the
// fused scan engine's sharded sums bit-for-bit.
func (d *Dataset) Aggregate(by GroupBy, cls *Classification) []GroupStats {
	recs := d.JobRecords()
	type accum struct {
		jobs, failed, sysfails int
		coreSec                int64
	}
	m := map[string]*accum{}
	for i := range recs {
		j := &recs[i]
		key := j.User
		if by == ByProject {
			key = j.Project
		}
		g, ok := m[key]
		if !ok {
			g = &accum{}
			m[key] = g
		}
		g.jobs++
		g.coreSec += j.CoreSeconds()
		if j.Outcome() == joblog.OutcomeFailure {
			g.failed++
			if cls != nil && cls.Causes[j.ID] == CauseSystem {
				g.sysfails++
			}
		}
	}
	out := make([]GroupStats, 0, len(m))
	for key, g := range m {
		gs := GroupStats{
			Key:         key,
			Jobs:        g.jobs,
			Failed:      g.failed,
			SystemFails: g.sysfails,
			CoreHours:   float64(g.coreSec) / 3600,
		}
		if g.jobs > 0 {
			gs.FailRate = float64(g.failed) / float64(g.jobs)
		}
		out = append(out, gs)
	}
	sortGroups(out)
	return out
}

// Concentration computes the concentration/correlation profile for the
// grouping.
func (d *Dataset) Concentration(by GroupBy, cls *Classification) (*ConcentrationResult, error) {
	jobs := d.JobRecords()
	res, err := concentrationFromGroups(by, d.Aggregate(by, cls))
	if err != nil {
		return nil, err
	}
	// Categorical per-job columns for Cramér's V.
	keys := make([]string, len(jobs))
	outcomes := make([]string, len(jobs))
	for i := range jobs {
		if by == ByUser {
			keys[i] = jobs[i].User
		} else {
			keys[i] = jobs[i].Project
		}
		outcomes[i] = jobs[i].Outcome().String()
	}
	if res.CramersV, err = stats.CramersV(keys, outcomes); err != nil {
		return nil, err
	}
	return res, nil
}

// Temporal computes the activity/failure time patterns.
func (d *Dataset) Temporal() *TemporalProfile {
	jobs := d.JobRecords()
	recs := d.EventRecords()
	p := &TemporalProfile{}
	monthIdx := map[string]int{}
	monthKey := func(t time.Time) int {
		k := t.Format("2006-01")
		idx, ok := monthIdx[k]
		if !ok {
			idx = len(p.Months)
			monthIdx[k] = idx
			p.Months = append(p.Months, k)
			p.JobsByMonth = append(p.JobsByMonth, 0)
			p.FailsByMonth = append(p.FailsByMonth, 0)
			p.FatalByMonth = append(p.FatalByMonth, 0)
		}
		return idx
	}
	start, _ := d.Span()
	dayOf := func(t time.Time) int {
		day := int(t.Sub(start).Hours() / 24)
		if day < 0 {
			day = 0
		}
		return day
	}
	// Jobs/events arrive in time order in both logs, so months appear in
	// chronological order without an extra sort.
	for i := range jobs {
		j := &jobs[i]
		h := j.Submit.Hour()
		w := j.Submit.Weekday()
		m := monthKey(j.Submit)
		day := dayOf(j.Submit)
		for len(p.JobsByDay) <= day {
			p.JobsByDay = append(p.JobsByDay, 0)
		}
		p.JobsByDay[day]++
		p.JobsByHour[h]++
		p.JobsByWeekday[w]++
		p.JobsByMonth[m]++
		if j.Outcome() == joblog.OutcomeFailure {
			p.FailsByHour[h]++
			p.FailsByWeekday[w]++
			p.FailsByMonth[m]++
		}
	}
	for _, i := range d.fatalIdx {
		e := &recs[i]
		p.FatalByHour[e.Time.Hour()]++
		p.FatalByMonth[monthKey(e.Time)]++
	}
	return p
}

// Profile computes the RAS composition table.
func (d *Dataset) Profile() *CategoryProfile {
	recs := d.EventRecords()
	p := &CategoryProfile{
		BySeverity:      map[raslog.Severity]int{},
		ByCategory:      map[raslog.Category]int{},
		ByComponent:     map[raslog.Component]int{},
		FatalByCategory: map[raslog.Category]int{},
	}
	for i := range recs {
		e := &recs[i]
		p.Total++
		p.BySeverity[e.Sev]++
		p.ByCategory[e.Cat]++
		p.ByComponent[e.Comp]++
		if e.Sev == raslog.Fatal {
			p.FatalByCategory[e.Cat]++
		}
	}
	return p
}

// Waste computes the failure-cost breakdown using a classification for the
// user/system attribution.
func (d *Dataset) Waste(cls *Classification) (*WasteResult, error) {
	recs := d.JobRecords()
	if cls == nil {
		return nil, fmt.Errorf("core: waste needs a classification")
	}
	// All sums accumulate as integer core-seconds (order-insensitive) and
	// convert to core-hours once, matching the fused scan engine's sharded
	// sums bit-for-bit.
	type famAccum struct {
		jobs    int
		coreSec int64
	}
	res := &WasteResult{}
	byFam := map[joblog.ExitFamily]*famAccum{}
	var totalCS, wastedCS, userCS, sysCS int64
	for i := range recs {
		j := &recs[i]
		cs := j.CoreSeconds()
		totalCS += cs
		if j.Outcome() != joblog.OutcomeFailure {
			continue
		}
		wastedCS += cs
		if cls.Causes[j.ID] == CauseSystem {
			sysCS += cs
		} else {
			userCS += cs
		}
		fam := joblog.Family(j.ExitStatus)
		row, ok := byFam[fam]
		if !ok {
			row = &famAccum{}
			byFam[fam] = row
		}
		row.jobs++
		row.coreSec += cs
	}
	res.TotalCoreHours = float64(totalCS) / 3600
	res.WastedCoreHours = float64(wastedCS) / 3600
	res.UserCoreHours = float64(userCS) / 3600
	res.SystemCoreHours = float64(sysCS) / 3600
	if res.TotalCoreHours > 0 {
		res.WastedShare = res.WastedCoreHours / res.TotalCoreHours
	}
	for fam, a := range byFam {
		row := WasteRow{Family: fam, Jobs: a.jobs, CoreHours: float64(a.coreSec) / 3600}
		if res.WastedCoreHours > 0 {
			row.Share = row.CoreHours / res.WastedCoreHours
		}
		res.ByFamily = append(res.ByFamily, row)
	}
	sort.Slice(res.ByFamily, func(i, j int) bool {
		if res.ByFamily[i].CoreHours != res.ByFamily[j].CoreHours {
			return res.ByFamily[i].CoreHours > res.ByFamily[j].CoreHours
		}
		return res.ByFamily[i].Family < res.ByFamily[j].Family
	})
	return res, nil
}

// InterruptsByUser computes E15 from a classification. Core-hours
// accumulate as integer core-seconds so the per-user values match the fused
// scan engine's sharded sums bit-for-bit.
func (d *Dataset) InterruptsByUser(cls *Classification) (*InterruptCorrelation, error) {
	recs := d.JobRecords()
	type agg struct {
		coreSec    int64
		jobs       int
		interrupts int
	}
	m := map[string]*agg{}
	for i := range recs {
		j := &recs[i]
		a, ok := m[j.User]
		if !ok {
			a = &agg{}
			m[j.User] = a
		}
		a.jobs++
		a.coreSec += j.CoreSeconds()
		if cls.Causes[j.ID] == CauseSystem {
			a.interrupts++
		}
	}
	if len(m) < 3 {
		return nil, fmt.Errorf("core: need ≥3 users, have %d", len(m))
	}
	users := make([]string, 0, len(m))
	for u := range m {
		users = append(users, u)
	}
	// Deterministic order.
	sort.Strings(users)
	ch := make([]float64, len(users))
	jobs := make([]float64, len(users))
	ints := make([]float64, len(users))
	for i, u := range users {
		a := m[u]
		ch[i] = float64(a.coreSec) / 3600
		jobs[i] = float64(a.jobs)
		ints[i] = float64(a.interrupts)
	}
	return interruptCorrelationFrom(ch, jobs, ints)
}

// Locality aggregates FATAL events at the given hardware level and measures
// their spatial concentration. Events above the aggregation level (e.g.
// whole-system infra messages) are skipped.
func (d *Dataset) Locality(level machine.Level) (*LocalityResult, error) {
	recs := d.EventRecords()
	if level != machine.LevelRack && level != machine.LevelMidplane {
		return nil, fmt.Errorf("core: locality level must be rack or midplane, got %v", level)
	}
	slots := machine.NumRacks
	if level == machine.LevelMidplane {
		slots = machine.TotalMidplanes
	}
	counts := make([]int, slots)
	total := 0
	for _, i := range d.fatalIdx {
		e := &recs[i]
		if e.Loc.Level() < level {
			continue
		}
		id := e.Loc.RackIndex()
		if level == machine.LevelMidplane {
			var err error
			if id, err = e.Loc.MidplaneID(); err != nil {
				continue
			}
		}
		counts[id]++
		total++
	}
	list, err := locationCounts(level, counts)
	if err != nil {
		return nil, err
	}
	return localityFromCounts(level, list, total)
}

// LifePhases splits the observation window into n equal phases and reports
// how the job failure rate and MTTI evolve over the system's life — the
// burn-in / mid-life / wear-out trajectory.
func (d *Dataset) LifePhases(n int, rule FilterRule) ([]LifePhase, error) {
	mtti, err := d.MTTI(rule)
	if err != nil {
		return nil, err
	}
	return d.LifePhasesFromMTTI(n, mtti)
}
