package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bitmap"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// JobKernel / EventKernel are the dataset-flavored instantiations of the
// scan engine's kernel contract: analyses over the job columns register
// JobKernels, analyses over the RAS event columns register EventKernels.
type (
	JobKernel   = scan.Kernel[*scan.JobView]
	JobState    = scan.State[*scan.JobView]
	EventKernel = scan.Kernel[*scan.EventView]
	EventState  = scan.State[*scan.EventView]
)

// familySystemCode is the dense code of joblog.FamilySystem, the family
// whose failures the exit-status classification attributes to the system.
var familySystemCode = joblog.FamilyCode(joblog.FamilySystem)

// FailTally is the flat (map-free) failure-classification summary the fused
// kernels produce: corpus totals plus per-family failure counts indexed by
// dense family code. It carries the same numbers as Classification without
// the per-job cause map.
type FailTally struct {
	Total       int
	Failed      int
	UserCaused  int
	SystemCause int
	// ByFamily counts failed jobs per exit family, indexed by
	// joblog.FamilyCode (slot 0, success, stays zero).
	ByFamily [joblog.NumFamilies]int
}

// UserShare returns the fraction of failures attributed to user behavior.
func (t *FailTally) UserShare() float64 {
	if t.Failed == 0 {
		return 0
	}
	return float64(t.UserCaused) / float64(t.Failed)
}

// FamilyCount returns the failed-job count of one exit family.
func (t *FailTally) FamilyCount(f joblog.ExitFamily) int {
	return t.ByFamily[joblog.FamilyCode(f)]
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

// ---------------------------------------------------------------------------
// Job kernels

// summaryKernel feeds Summarize: core-second total plus outcome counts.
type summaryKernel struct{}

func (summaryKernel) Name() string       { return "summary" }
func (summaryKernel) NewState() JobState { return &summaryState{} }

type summaryState struct {
	coreSec         int64
	success, failed int
}

//mira:hotpath
func (s *summaryState) ProcessBlock(v *scan.JobView, lo, hi int) {
	cs, fam := v.CoreSec, v.Family
	var coreSec int64
	var succ, fail int
	for i := lo; i < hi; i++ {
		coreSec += cs[i]
		if fam[i] == 0 {
			succ++
		} else {
			fail++
		}
	}
	s.coreSec += coreSec
	s.success += succ
	s.failed += fail
}

func (s *summaryState) Merge(other JobState) {
	o := other.(*summaryState)
	s.coreSec += o.coreSec
	s.success += o.success
	s.failed += o.failed
}

// exitTallyKernel feeds ClassifyByExit consumers: the exit-status-only
// failure tally (scheduler-reserved statuses are system-caused).
type exitTallyKernel struct{}

func (exitTallyKernel) Name() string       { return "exit-tally" }
func (exitTallyKernel) NewState() JobState { return &exitTallyState{} }

type exitTallyState struct{ t FailTally }

//mira:hotpath
func (s *exitTallyState) ProcessBlock(v *scan.JobView, lo, hi int) {
	fam := v.Family
	for i := lo; i < hi; i++ {
		s.t.Total++
		c := fam[i]
		if c == 0 {
			continue
		}
		s.t.Failed++
		s.t.ByFamily[c]++
		if c == familySystemCode {
			s.t.SystemCause++
		} else {
			s.t.UserCaused++
		}
	}
}

func (s *exitTallyState) Merge(other JobState) {
	o := other.(*exitTallyState)
	s.t.Total += o.t.Total
	s.t.Failed += o.t.Failed
	s.t.UserCaused += o.t.UserCaused
	s.t.SystemCause += o.t.SystemCause
	for i := range s.t.ByFamily {
		s.t.ByFamily[i] += o.t.ByFamily[i]
	}
}

// jointKernel feeds ClassifyJoint consumers: the RAS-correlated tally. The
// kernel precomputes the block-attributable FATAL streams once (locations at
// rack level or finer, their times, and the directly attributed job ids) so
// each shard only binary-searches the times array.
type jointKernel struct {
	d          *Dataset
	locs       []machine.Location // block-attributable FATALs, time order
	timesNs    []int64            // their times, Unix nanoseconds
	attributed map[int64]bool     // job ids named by any FATAL event
	tolNs      int64
}

func newJointKernel(d *Dataset, opt JointOptions) *jointKernel {
	return newJointKernelWhere(d, opt, nil)
}

// newJointKernelWhere restricts the kernel's FATAL streams to the selected
// events (nil = all), so a cohort scan attributes failures exactly as a
// dataset materialized from that selection would.
func newJointKernelWhere(d *Dataset, opt JointOptions, eventSel *bitmap.Bitmap) *jointKernel {
	if opt.Tolerance <= 0 {
		opt = DefaultJointOptions()
	}
	k := &jointKernel{d: d, attributed: map[int64]bool{}, tolNs: int64(opt.Tolerance)}
	for _, i := range d.fatalIdx {
		if eventSel != nil && !eventSel.Contains(uint32(i)) {
			continue
		}
		e := &d.Events[i]
		if e.JobID != 0 {
			k.attributed[e.JobID] = true
		}
		if e.Loc.Level() < machine.LevelRack {
			continue
		}
		k.locs = append(k.locs, e.Loc)
		k.timesNs = append(k.timesNs, e.Time.UnixNano())
	}
	return k
}

func (k *jointKernel) Name() string       { return "joint-tally" }
func (k *jointKernel) NewState() JobState { return &jointState{k: k} }

type jointState struct {
	k *jointKernel
	t FailTally
}

//mira:hotpath
func (s *jointState) ProcessBlock(v *scan.JobView, lo, hi int) {
	k := s.k
	fam, ids, ends := v.Family, v.ID, v.EndUnix
	for i := lo; i < hi; i++ {
		s.t.Total++
		c := fam[i]
		if c == 0 {
			continue
		}
		s.t.Failed++
		s.t.ByFamily[c]++
		if k.attributed[ids[i]] || k.fatalNearEnd(i, ends[i]*int64(time.Second)) {
			s.t.SystemCause++
		} else {
			s.t.UserCaused++
		}
	}
}

// fatalNearEnd mirrors Dataset.fatalNearEnd over the precomputed columns:
// does a FATAL within tol of the job's end hit a block the job ran on?
func (k *jointKernel) fatalNearEnd(row int, endNs int64) bool {
	tasks := k.d.tasksOf[row]
	if len(tasks) == 0 {
		return false
	}
	times := k.timesNs
	lo, hi := 0, len(times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if times[mid] < endNs-k.tolNs {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(times) && times[i] <= endNs+k.tolNs; i++ {
		for t := range tasks {
			if tasks[t].Block.ContainsLocation(k.locs[i]) {
				return true
			}
		}
	}
	return false
}

func (s *jointState) Merge(other JobState) {
	o := other.(*jointState)
	s.t.Total += o.t.Total
	s.t.Failed += o.t.Failed
	s.t.UserCaused += o.t.UserCaused
	s.t.SystemCause += o.t.SystemCause
	for i := range s.t.ByFamily {
		s.t.ByFamily[i] += o.t.ByFamily[i]
	}
}

// groupKernel feeds Aggregate/Concentration/InterruptsByUser: dense per-key
// job, failure, system-failure and core-second tallies over the user or
// project dictionary. System attribution follows the exit-status
// classification (family "system"), matching the classification the
// experiments pass to the legacy aggregators.
type groupKernel struct {
	by GroupBy
	n  int // dictionary size
}

func newGroupKernel(by GroupBy, dictLen int) *groupKernel {
	return &groupKernel{by: by, n: dictLen}
}

func (k *groupKernel) Name() string { return "groups-by-" + k.by.String() }

func (k *groupKernel) NewState() JobState { return &groupState{by: k.by, n: k.n} }

// groupState allocates its dense tallies on the first block it sees, so
// the shards a cohort scan leaves empty cost no per-key arrays.
type groupState struct {
	by                     GroupBy
	n                      int
	jobs, failed, sysfails []int32
	coreSec                []int64
}

func (s *groupState) alloc() {
	s.jobs = make([]int32, s.n)
	s.failed = make([]int32, s.n)
	s.sysfails = make([]int32, s.n)
	s.coreSec = make([]int64, s.n)
}

//mira:hotpath
func (s *groupState) ProcessBlock(v *scan.JobView, lo, hi int) {
	if s.jobs == nil {
		s.alloc()
	}
	ids := v.UserID
	if s.by == ByProject {
		ids = v.ProjectID
	}
	fam, cs := v.Family, v.CoreSec
	for i := lo; i < hi; i++ {
		id := ids[i]
		s.jobs[id]++
		s.coreSec[id] += cs[i]
		if c := fam[i]; c != 0 {
			s.failed[id]++
			if c == familySystemCode {
				s.sysfails[id]++
			}
		}
	}
}

func (s *groupState) Merge(other JobState) {
	o := other.(*groupState)
	if o.jobs == nil {
		return
	}
	if s.jobs == nil {
		// scan.Run never touches a merged-away state again, so its
		// tallies can be adopted instead of copied.
		s.jobs, s.failed, s.sysfails, s.coreSec = o.jobs, o.failed, o.sysfails, o.coreSec
		return
	}
	for i := range s.jobs {
		s.jobs[i] += o.jobs[i]
		s.failed[i] += o.failed[i]
		s.sysfails[i] += o.sysfails[i]
		s.coreSec[i] += o.coreSec[i]
	}
}

// finish converts the dense tallies into the legacy sorted GroupStats
// view. Keys with no jobs are skipped: a whole-corpus scan never produces
// one (the dictionary is built from the jobs), and in a cohort scan the
// skip makes the group list match a materialized dataset's smaller
// dictionary.
func (s *groupState) finish(keys []string) []GroupStats {
	out := make([]GroupStats, 0, len(keys))
	if s.jobs == nil {
		return out
	}
	for i, key := range keys {
		if s.jobs[i] == 0 {
			continue
		}
		g := GroupStats{
			Key:         key,
			Jobs:        int(s.jobs[i]),
			Failed:      int(s.failed[i]),
			SystemFails: int(s.sysfails[i]),
			CoreHours:   float64(s.coreSec[i]) / 3600,
		}
		if g.Jobs > 0 {
			g.FailRate = float64(g.Failed) / float64(g.Jobs)
		}
		out = append(out, g)
	}
	sortGroups(out)
	return out
}

// wasteKernel feeds Waste: total and per-family core-seconds of failed jobs.
type wasteKernel struct{}

func (wasteKernel) Name() string       { return "waste" }
func (wasteKernel) NewState() JobState { return &wasteState{} }

type wasteState struct {
	totalCS int64
	famJobs [joblog.NumFamilies]int32
	famCS   [joblog.NumFamilies]int64
}

//mira:hotpath
func (s *wasteState) ProcessBlock(v *scan.JobView, lo, hi int) {
	fam, cs := v.Family, v.CoreSec
	for i := lo; i < hi; i++ {
		c := cs[i]
		s.totalCS += c
		if f := fam[i]; f != 0 {
			s.famJobs[f]++
			s.famCS[f] += c
		}
	}
}

func (s *wasteState) Merge(other JobState) {
	o := other.(*wasteState)
	s.totalCS += o.totalCS
	for i := range s.famJobs {
		s.famJobs[i] += o.famJobs[i]
		s.famCS[i] += o.famCS[i]
	}
}

// finish assembles the legacy WasteResult. Under the exit-status
// classification system-caused waste is exactly the "system" family's.
func (s *wasteState) finish() *WasteResult {
	res := &WasteResult{TotalCoreHours: float64(s.totalCS) / 3600}
	var wastedCS int64
	for f := 1; f < joblog.NumFamilies; f++ {
		wastedCS += s.famCS[f]
	}
	sysCS := s.famCS[familySystemCode]
	res.WastedCoreHours = float64(wastedCS) / 3600
	res.SystemCoreHours = float64(sysCS) / 3600
	res.UserCoreHours = float64(wastedCS-sysCS) / 3600
	if res.TotalCoreHours > 0 {
		res.WastedShare = res.WastedCoreHours / res.TotalCoreHours
	}
	for f := 1; f < joblog.NumFamilies; f++ {
		if s.famJobs[f] == 0 {
			continue
		}
		row := WasteRow{
			Family:    joblog.FamilyOfCode(uint8(f)),
			Jobs:      int(s.famJobs[f]),
			CoreHours: float64(s.famCS[f]) / 3600,
		}
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
	return res
}

// temporalJobKernel feeds Temporal's job-side bins: hour-of-day, weekday,
// month and day histograms of submissions and failures. All calendar math is
// integer arithmetic on Unix seconds (UTC), bit-identical to the time.Time
// path (see DESIGN.md §13).
type temporalJobKernel struct {
	startUnix int64
	monthCap  int // months spanned by the dataset, for allocation-free appends
	dayCap    int // days spanned, ditto
}

func newTemporalJobKernel(d *Dataset) *temporalJobKernel {
	start, end := d.Span()
	return newTemporalJobKernelSpan(start, end)
}

// newTemporalJobKernelSpan builds the kernel for an explicit observation
// window — a cohort scan passes the selection's span so its day bins line
// up with a dataset materialized from the same selection.
func newTemporalJobKernelSpan(start, end time.Time) *temporalJobKernel {
	spanSec := end.Unix() - start.Unix()
	if spanSec < 0 {
		spanSec = 0
	}
	return &temporalJobKernel{
		startUnix: start.Unix(),
		monthCap:  int(spanSec/(28*86400)) + 2,
		dayCap:    int(spanSec/86400) + 2,
	}
}

func (k *temporalJobKernel) Name() string { return "temporal-jobs" }

func (k *temporalJobKernel) NewState() JobState { return &temporalJobState{k: k} }

type temporalJobState struct {
	k         *temporalJobKernel
	jobsHour  [24]int
	failsHour [24]int
	jobsWd    [7]int
	failsWd   [7]int
	// Monthly bins keyed by year-month code in first-appearance (= submit)
	// order; labels are materialized at finish time.
	months []int32
	mJobs  []int
	mFails []int
	// jobsDay grows to the last day seen, like the legacy profile.
	jobsDay []int
}

// alloc sizes the bins for the kernel's span on the first block, so the
// shards a cohort scan leaves empty allocate nothing.
func (s *temporalJobState) alloc() {
	s.months = make([]int32, 0, s.k.monthCap)
	s.mJobs = make([]int, 0, s.k.monthCap)
	s.mFails = make([]int, 0, s.k.monthCap)
	s.jobsDay = make([]int, 0, s.k.dayCap)
}

// monthSlot returns the bin index of ym, appending a new bin on first
// appearance. The corpus is time-ordered, so the current month is almost
// always the last bin.
func (s *temporalJobState) monthSlot(ym int32) int {
	if n := len(s.months); n > 0 && s.months[n-1] == ym {
		return n - 1
	}
	for i := range s.months {
		if s.months[i] == ym {
			return i
		}
	}
	s.months = append(s.months, ym)
	s.mJobs = append(s.mJobs, 0)
	s.mFails = append(s.mFails, 0)
	return len(s.months) - 1
}

//mira:hotpath
func (s *temporalJobState) ProcessBlock(v *scan.JobView, lo, hi int) {
	if s.jobsDay == nil {
		s.alloc()
	}
	sub, fam := v.SubmitUnix, v.Family
	start := s.k.startUnix
	// ymOf depends only on the day number; rows arrive in near submit
	// order, so one civil-date conversion serves a whole day's run.
	lastDay, ym := int64(math.MinInt64), int32(0)
	for i := lo; i < hi; i++ {
		u := sub[i]
		h := int(u%86400) / 3600
		w := int((u/86400 + 4) % 7)
		if d := u / 86400; d != lastDay {
			lastDay, ym = d, ymOf(u)
		}
		m := s.monthSlot(ym)
		day := int((u - start) / 86400)
		if day < 0 {
			day = 0
		}
		for len(s.jobsDay) <= day {
			s.jobsDay = append(s.jobsDay, 0)
		}
		s.jobsDay[day]++
		s.jobsHour[h]++
		s.jobsWd[w]++
		s.mJobs[m]++
		if fam[i] != 0 {
			s.failsHour[h]++
			s.failsWd[w]++
			s.mFails[m]++
		}
	}
}

func (s *temporalJobState) Merge(other JobState) {
	o := other.(*temporalJobState)
	for i := 0; i < 24; i++ {
		s.jobsHour[i] += o.jobsHour[i]
		s.failsHour[i] += o.failsHour[i]
	}
	for i := 0; i < 7; i++ {
		s.jobsWd[i] += o.jobsWd[i]
		s.failsWd[i] += o.failsWd[i]
	}
	// Other covers later rows: its new months append after ours, preserving
	// global first-appearance order.
	for i, ym := range o.months {
		m := s.monthSlot(ym)
		s.mJobs[m] += o.mJobs[i]
		s.mFails[m] += o.mFails[i]
	}
	if len(o.jobsDay) > len(s.jobsDay) {
		s.jobsDay = append(s.jobsDay, make([]int, len(o.jobsDay)-len(s.jobsDay))...)
	}
	for i, n := range o.jobsDay {
		s.jobsDay[i] += n
	}
}

// ---------------------------------------------------------------------------
// Event kernels

// profileKernel feeds Profile: dense severity/category/component tallies.
type profileKernel struct {
	nCats, nComps int
}

func (k *profileKernel) Name() string { return "ras-profile" }

func (k *profileKernel) NewState() EventState { return &profileState{k: k} }

// profileState allocates its dictionary tallies on the first block.
type profileState struct {
	k         *profileKernel
	total     int
	sevs      [4]int // indexed by raslog.Severity (1..3)
	cats      []int
	comps     []int
	fatalCats []int
}

//mira:hotpath
func (s *profileState) ProcessBlock(v *scan.EventView, lo, hi int) {
	if s.cats == nil {
		s.cats = make([]int, s.k.nCats)
		s.comps = make([]int, s.k.nComps)
		s.fatalCats = make([]int, s.k.nCats)
	}
	sev, cat, comp := v.Sev, v.CatID, v.CompID
	for i := lo; i < hi; i++ {
		s.total++
		s.sevs[sev[i]]++
		s.cats[cat[i]]++
		s.comps[comp[i]]++
		if sev[i] == uint8(raslog.Fatal) {
			s.fatalCats[cat[i]]++
		}
	}
}

func (s *profileState) Merge(other EventState) {
	o := other.(*profileState)
	s.total += o.total
	for i := range s.sevs {
		s.sevs[i] += o.sevs[i]
	}
	if o.cats == nil {
		return
	}
	if s.cats == nil { // adopt, as in groupState.Merge
		s.cats, s.comps, s.fatalCats = o.cats, o.comps, o.fatalCats
		return
	}
	for i := range s.cats {
		s.cats[i] += o.cats[i]
		s.fatalCats[i] += o.fatalCats[i]
	}
	for i := range s.comps {
		s.comps[i] += o.comps[i]
	}
}

func (s *profileState) finish(v *scan.EventView) *CategoryProfile {
	p := &CategoryProfile{
		BySeverity:      map[raslog.Severity]int{},
		ByCategory:      map[raslog.Category]int{},
		ByComponent:     map[raslog.Component]int{},
		FatalByCategory: map[raslog.Category]int{},
		Total:           s.total,
	}
	for sev, n := range s.sevs {
		if n > 0 {
			p.BySeverity[raslog.Severity(sev)] = n
		}
	}
	for i, n := range s.cats {
		if n > 0 {
			p.ByCategory[raslog.Category(v.Cats[i])] = n
		}
		if fn := s.fatalCats[i]; fn > 0 {
			p.FatalByCategory[raslog.Category(v.Cats[i])] = fn
		}
	}
	for i, n := range s.comps {
		if n > 0 {
			p.ByComponent[raslog.Component(v.Comps[i])] = n
		}
	}
	return p
}

// temporalEventKernel feeds Temporal's FATAL-side bins.
type temporalEventKernel struct {
	monthCap int
}

func (k *temporalEventKernel) Name() string { return "temporal-fatals" }

func (k *temporalEventKernel) NewState() EventState { return &temporalEventState{k: k} }

// temporalEventState allocates its month bins on the first block.
type temporalEventState struct {
	k         *temporalEventKernel
	fatalHour [24]int
	months    []int32
	mFatals   []int
}

func (s *temporalEventState) monthSlot(ym int32) int {
	if n := len(s.months); n > 0 && s.months[n-1] == ym {
		return n - 1
	}
	for i := range s.months {
		if s.months[i] == ym {
			return i
		}
	}
	s.months = append(s.months, ym)
	s.mFatals = append(s.mFatals, 0)
	return len(s.months) - 1
}

//mira:hotpath
func (s *temporalEventState) ProcessBlock(v *scan.EventView, lo, hi int) {
	if s.months == nil {
		s.months = make([]int32, 0, s.k.monthCap)
		s.mFatals = make([]int, 0, s.k.monthCap)
	}
	sev, times := v.Sev, v.TimeUnix
	lastDay, ym := int64(math.MinInt64), int32(0) // as in temporalJobState
	for i := lo; i < hi; i++ {
		if sev[i] != uint8(raslog.Fatal) {
			continue
		}
		u := times[i]
		s.fatalHour[int(u%86400)/3600]++
		if d := u / 86400; d != lastDay {
			lastDay, ym = d, ymOf(u)
		}
		s.mFatals[s.monthSlot(ym)]++
	}
}

func (s *temporalEventState) Merge(other EventState) {
	o := other.(*temporalEventState)
	for i := 0; i < 24; i++ {
		s.fatalHour[i] += o.fatalHour[i]
	}
	for i, ym := range o.months {
		s.mFatals[s.monthSlot(ym)] += o.mFatals[i]
	}
}

// localityKernel feeds Locality: dense FATAL counts per midplane or rack.
type localityKernel struct {
	level machine.Level
}

func (k *localityKernel) Name() string { return "locality-" + k.level.String() }

func (k *localityKernel) NewState() EventState { return &localityState{level: k.level} }

// localityState allocates its per-location counts on the first block.
type localityState struct {
	level  machine.Level
	counts []int32
	total  int
}

func (s *localityState) slots() int {
	if s.level == machine.LevelMidplane {
		return machine.TotalMidplanes
	}
	return machine.NumRacks
}

//mira:hotpath
func (s *localityState) ProcessBlock(v *scan.EventView, lo, hi int) {
	if s.counts == nil {
		s.counts = make([]int32, s.slots())
	}
	sev := v.Sev
	ids := v.RackID
	if s.level == machine.LevelMidplane {
		ids = v.MidplaneID
	}
	for i := lo; i < hi; i++ {
		if sev[i] != uint8(raslog.Fatal) {
			continue
		}
		id := ids[i]
		if id < 0 {
			continue
		}
		s.counts[id]++
		s.total++
	}
}

func (s *localityState) Merge(other EventState) {
	o := other.(*localityState)
	s.total += o.total
	if o.counts == nil {
		return
	}
	if s.counts == nil { // adopt, as in groupState.Merge
		s.counts = o.counts
		return
	}
	for i := range s.counts {
		s.counts[i] += o.counts[i]
	}
}

func (s *localityState) finish() (*LocalityResult, error) {
	dense := make([]int, s.slots())
	for i, n := range s.counts {
		dense[i] = int(n)
	}
	counts, err := locationCounts(s.level, dense)
	if err != nil {
		return nil, err
	}
	return localityFromCounts(s.level, counts, s.total)
}

// ---------------------------------------------------------------------------
// Calendar helpers (integer civil-date math over Unix seconds, UTC)

// ymOf returns the year-month code (year*12 + month-1) of a Unix timestamp,
// using Howard Hinnant's civil-from-days algorithm. Valid for sec ≥ 0.
func ymOf(sec int64) int32 {
	e := sec/86400 + 719468
	era := e / 146097
	doe := e % 146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	y := yoe + era*400
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	m := mp + 3
	if mp >= 10 {
		m = mp - 9
	}
	if m <= 2 {
		y++
	}
	return int32(y*12 + m - 1)
}

// ymLabel renders a year-month code the way time.Format("2006-01") does.
func ymLabel(ym int32) string {
	return fmt.Sprintf("%04d-%02d", ym/12, ym%12+1)
}
