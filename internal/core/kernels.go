package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// dense family code: the corpus-level numbers of a user/system failure
// classification, without a per-job cause map.
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

// denseKey is the element type of a dictionary-coded key column.
type denseKey interface{ uint8 | int32 }

// ---------------------------------------------------------------------------
// Job kernels

// tallyKernel is the job side's dense-key tally: per key of one coded
// column (exit family, user or project) it folds the job count, failed
// jobs, failures in the "system" exit family and core-seconds. Summary, the
// exit tally, Waste and both group lists are finished from its instances.
type tallyKernel[K denseKey] struct {
	key string
	n   int                     // key-space size
	col func(*scan.JobView) []K // the key column, picked once per block
}

func (k *tallyKernel[K]) Name() string       { return "tally-by-" + k.key }
func (k *tallyKernel[K]) NewState() JobState { return &tallyState[K]{k: k} }

// tallyState allocates its per-key arrays on the first block, so the
// shards a cohort scan leaves empty cost nothing.
type tallyState[K denseKey] struct {
	k                      *tallyKernel[K]
	jobs, failed, sysfails []int32
	coreSec                []int64
}

func (s *tallyState[K]) alloc() {
	s.jobs = make([]int32, s.k.n)
	s.failed = make([]int32, s.k.n)
	s.sysfails = make([]int32, s.k.n)
	s.coreSec = make([]int64, s.k.n)
}

//mira:hotpath
func (s *tallyState[K]) ProcessBlock(v *scan.JobView, lo, hi int) {
	if s.jobs == nil {
		s.alloc()
	}
	ids, fam, cs := s.k.col(v), v.Family, v.CoreSec
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

func (s *tallyState[K]) Merge(other JobState) {
	o := other.(*tallyState[K])
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

// groups converts the tallies into the GroupStats list in sortGroups order.
// Keys with no jobs are skipped: a whole-corpus scan never produces one
// (the dictionary is built from the jobs), and in a cohort scan the skip
// makes the list match a materialized dataset's smaller dictionary.
func (s *tallyState[K]) groups(keys []string) []GroupStats {
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
		g.FailRate = float64(g.Failed) / float64(g.Jobs)
		out = append(out, g)
	}
	sortGroups(out)
	return out
}

// familyTotals is the by-family tally as plain counts: jobs and
// core-seconds per exit family code, zero for a state that saw no rows.
type familyTotals struct {
	jobs    [joblog.NumFamilies]int
	coreSec [joblog.NumFamilies]int64
}

func familyTotalsOf(s *tallyState[uint8]) familyTotals {
	var t familyTotals
	for f := range s.jobs {
		t.jobs[f] = int(s.jobs[f])
		t.coreSec[f] = s.coreSec[f]
	}
	return t
}

// exit is the exit-status failure tally: scheduler-reserved statuses (the
// "system" family) are system-caused, every other failure user-caused.
func (t *familyTotals) exit() FailTally {
	var x FailTally
	for f := 1; f < joblog.NumFamilies; f++ {
		x.ByFamily[f] = t.jobs[f]
		x.Failed += t.jobs[f]
	}
	x.Total = t.jobs[0] + x.Failed
	x.SystemCause = t.jobs[familySystemCode]
	x.UserCaused = x.Failed - x.SystemCause
	return x
}

func (t *familyTotals) totalCoreSec() int64 {
	var cs int64
	for _, c := range t.coreSec {
		cs += c
	}
	return cs
}

// waste assembles Waste's result. Under the exit-status classification
// system-caused waste is exactly the "system" family's.
func (t *familyTotals) waste() *WasteResult {
	totalCS := t.totalCoreSec()
	res := &WasteResult{TotalCoreHours: float64(totalCS) / 3600}
	wastedCS := totalCS - t.coreSec[0]
	sysCS := t.coreSec[familySystemCode]
	res.WastedCoreHours = float64(wastedCS) / 3600
	res.SystemCoreHours = float64(sysCS) / 3600
	res.UserCoreHours = float64(wastedCS-sysCS) / 3600
	if res.TotalCoreHours > 0 {
		res.WastedShare = res.WastedCoreHours / res.TotalCoreHours
	}
	for f := 1; f < joblog.NumFamilies; f++ {
		if t.jobs[f] == 0 {
			continue
		}
		row := WasteRow{
			Family:    joblog.FamilyOfCode(uint8(f)),
			Jobs:      t.jobs[f],
			CoreHours: float64(t.coreSec[f]) / 3600,
		}
		if res.WastedCoreHours > 0 {
			row.Share = row.CoreHours / res.WastedCoreHours
		}
		res.ByFamily = append(res.ByFamily, row)
	}
	slices.SortFunc(res.ByFamily, func(a, b WasteRow) int {
		return cmp.Or(cmp.Compare(b.CoreHours, a.CoreHours), cmp.Compare(a.Family, b.Family))
	})
	return res
}

// jointIndex lists the failed jobs RAS correlation attributes to the
// system under DefaultJointOptions, each with the FATAL events that
// attribute it: a FATAL naming the job's id, or a FATAL at rack level or
// finer within the tolerance of the job's end on a block one of its tasks
// ran on. It is stored flat: rows[i] is a job row, and its FATAL event rows
// are fatals[off[i]:off[i+1]], ascending. A cohort's system-caused count is
// then a walk over the few listed jobs, not a FATAL search per failed job.
type jointIndex struct {
	rows   []int32
	off    []int32
	fatals []int32
}

// newJointIndex builds the index in two passes: one over the FATAL stream
// for the FATALs naming a failed job, one over the failed jobs with tasks
// for the block-attributable FATALs in each end window. Both emit (job
// row, FATAL row) pairs, which one sort groups by job.
func newJointIndex(d *Dataset) *jointIndex {
	jv, ev := d.JobView(), d.EventView()
	times := ev.TimeUnix
	// Times are whole seconds, so |t−end| ≤ tol holds exactly when
	// |t−end| ≤ ⌊tol⌋.
	tol := int64(DefaultJointOptions().Tolerance / time.Second)
	var pairs []uint64 // job row << 32 | FATAL row
	// The block-attributable FATALs in time order: rows, times, locations.
	nf := len(d.fatalIdx)
	near, nearT, nearSpan := make([]int32, 0, nf), make([]int64, 0, nf), make([]midplaneSpan, 0, nf)
	for _, i := range d.fatalIdx {
		if id := ev.JobID[i]; id != 0 {
			if p, ok := d.jobPos(id); ok && jv.Family[p] != 0 {
				pairs = append(pairs, uint64(p)<<32|uint64(i))
			}
		}
		if loc := locOfCode(ev.LocCode[i]); loc.Level() >= machine.LevelRack {
			near, nearT, nearSpan = append(near, int32(i)), append(nearT, times[i]), append(nearSpan, midplaneSpanOf(loc))
		}
	}
	blocks := d.TaskView().Block
	for row, fam := range jv.Family {
		tasks := d.tasksOf(row)
		if fam == 0 || len(tasks) == 0 {
			continue
		}
		end := jv.EndUnix[row]
		k, _ := slices.BinarySearch(nearT, end-tol)
		for ; k < len(near) && nearT[k] <= end+tol; k++ {
			for _, t := range tasks {
				if nearSpan[k].hits(blocks[t]) {
					pairs = append(pairs, uint64(row)<<32|uint64(near[k]))
					break
				}
			}
		}
	}
	slices.Sort(pairs)
	pairs = slices.Compact(pairs) // a FATAL both naming and near the job
	x := &jointIndex{fatals: make([]int32, len(pairs))}
	for i, pr := range pairs {
		if i == 0 || pr>>32 != pairs[i-1]>>32 {
			x.rows = append(x.rows, int32(pr>>32))
			x.off = append(x.off, int32(i))
		}
		x.fatals[i] = int32(uint32(pr))
	}
	x.off = append(x.off, int32(len(pairs)))
	return x
}

// midplaneSpan is the linear midplanes [lo, hi) a block-attributable
// FATAL's location covers, the form machine.Block.ContainsLocation tests:
// a rack covers its two midplanes, a midplane or finer location one, or
// none when its midplane id is invalid. A system-level location (lo < 0)
// intersects every block.
type midplaneSpan struct{ lo, hi int32 }

func midplaneSpanOf(loc machine.Location) midplaneSpan {
	switch loc.Level() {
	case machine.LevelSystem:
		return midplaneSpan{-1, -1}
	case machine.LevelRack:
		m := int32(loc.RackIndex() * machine.MidplanesPerRack)
		return midplaneSpan{m, m + machine.MidplanesPerRack}
	default:
		id, err := loc.MidplaneID()
		if err != nil {
			return midplaneSpan{}
		}
		return midplaneSpan{int32(id), int32(id) + 1}
	}
}

// hits reports whether the block of the given machine.Block.Code
// intersects the span: machine.Block.ContainsLocation on the code,
// without decoding a Block.
func (s midplaneSpan) hits(block uint16) bool {
	base := int32(block >> 8)
	return s.lo < 0 || max(s.lo, base) < min(s.hi, base+int32(block&0xff))
}

// count returns the listed jobs the job selection holds that keep at
// least one FATAL in the event selection (nil = all on that side): the
// failed jobs RAS correlation attributes to the system in the cohort.
//
//mira:hotpath
func (x *jointIndex) count(jobSel, eventSel *bitmap.Bitmap) int {
	n := 0
	for i, row := range x.rows {
		if jobSel != nil && !jobSel.Contains(uint32(row)) {
			continue
		}
		if eventSel == nil {
			n++
			continue
		}
		for _, e := range x.fatals[x.off[i]:x.off[i+1]] {
			if eventSel.Contains(uint32(e)) {
				n++
				break
			}
		}
	}
	return n
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
	return newTemporalJobKernelSpan(start.Unix(), end.Unix())
}

// newTemporalJobKernelSpan builds the kernel for an explicit observation
// window in Unix seconds — a cohort scan passes the selection's span so
// its day bins line up with a dataset materialized from the same
// selection.
func newTemporalJobKernelSpan(startUnix, endUnix int64) *temporalJobKernel {
	spanSec := max(endUnix-startUnix, 0)
	return &temporalJobKernel{
		startUnix: startUnix,
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
	// months counts jobs ([0]) and failures ([1]) per submit month.
	months monthBins
	// jobsDay grows to the last day seen, like the legacy profile.
	jobsDay []int
}

//mira:hotpath
func (s *temporalJobState) ProcessBlock(v *scan.JobView, lo, hi int) {
	if s.jobsDay == nil {
		// Sized for the kernel's span on the first block, so the shards a
		// cohort scan leaves empty allocate nothing.
		s.months.init(s.k.monthCap)
		s.jobsDay = make([]int, 0, s.k.dayCap)
	}
	sub, fam := v.SubmitUnix, v.Family
	start := s.k.startUnix
	// The month bin and weekday depend only on the day number; rows
	// arrive in near submit order, so one civil-date conversion serves a
	// whole day's run.
	lastDay, m, w := int64(math.MinInt64), 0, 0
	for i := lo; i < hi; i++ {
		u := sub[i]
		d, sod := floorDay(u)
		if d != lastDay {
			lastDay, m, w = d, s.months.slot(ymOfDay(d)), weekdayOfDay(d)
		}
		h := int(sod / 3600)
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
		s.months.counts[m][0]++
		if fam[i] != 0 {
			s.failsHour[h]++
			s.failsWd[w]++
			s.months.counts[m][1]++
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
	s.months.merge(&o.months)
	if len(o.jobsDay) > len(s.jobsDay) {
		s.jobsDay = append(s.jobsDay, make([]int, len(o.jobsDay)-len(s.jobsDay))...)
	}
	for i, n := range o.jobsDay {
		s.jobsDay[i] += n
	}
}

// ---------------------------------------------------------------------------
// Event kernels

// countKernel is the event side's dense-key count: per key of one coded
// column (severity, category, component, midplane or rack) it counts all
// rows and FATAL rows. Rows whose key is -1 — a location coarser than the
// column's level — are not counted. The RAS profile and both locality
// results are finished from its instances.
type countKernel[K denseKey] struct {
	key string
	n   int                       // key-space size
	col func(*scan.EventView) []K // the key column, picked once per block
}

func (k *countKernel[K]) Name() string         { return "count-by-" + k.key }
func (k *countKernel[K]) NewState() EventState { return &countState[K]{k: k} }

// countState allocates its per-key counts on the first block. Key id
// counts in slot id+1; slot 0 takes the rows whose key is -1 and is
// dropped when finishing, so the row loop needs no branch on the key.
type countState[K denseKey] struct {
	k      *countKernel[K]
	counts [][2]int32 // all rows, FATAL rows
}

//mira:hotpath
func (s *countState[K]) ProcessBlock(v *scan.EventView, lo, hi int) {
	if s.counts == nil {
		s.counts = make([][2]int32, s.k.n+1)
	}
	ids, sev, counts := s.k.col(v), v.Sev, s.counts
	for i := lo; i < hi; i++ {
		c := &counts[int(ids[i])+1]
		c[0]++
		if sev[i] == uint8(raslog.Fatal) {
			c[1]++
		}
	}
}

func (s *countState[K]) Merge(other EventState) {
	o := other.(*countState[K])
	if o.counts == nil {
		return
	}
	if s.counts == nil { // adopt, as in tallyState.Merge
		s.counts = o.counts
		return
	}
	for i := range s.counts {
		s.counts[i][0] += o.counts[i][0]
		s.counts[i][1] += o.counts[i][1]
	}
}

// keys returns the counts of keys 0..n-1; nil for a state that saw no rows.
func (s *countState[K]) keys() [][2]int32 {
	if s.counts == nil {
		return nil
	}
	return s.counts[1:]
}

// rasProfile assembles Profile's result from the severity, category and
// component counts.
func rasProfile(sev *countState[uint8], cat, comp *countState[int32], ev *scan.EventView) *CategoryProfile {
	p := &CategoryProfile{
		BySeverity:      map[raslog.Severity]int{},
		ByCategory:      map[raslog.Category]int{},
		ByComponent:     map[raslog.Component]int{},
		FatalByCategory: map[raslog.Category]int{},
	}
	for s, c := range sev.keys() {
		if c[0] > 0 {
			p.BySeverity[raslog.Severity(s)] = int(c[0])
			p.Total += int(c[0])
		}
	}
	for i, c := range cat.keys() {
		if c[0] > 0 {
			p.ByCategory[raslog.Category(ev.Cats[i])] = int(c[0])
		}
		if c[1] > 0 {
			p.FatalByCategory[raslog.Category(ev.Cats[i])] = int(c[1])
		}
	}
	for i, c := range comp.keys() {
		if c[0] > 0 {
			p.ByComponent[raslog.Component(ev.Comps[i])] = int(c[0])
		}
	}
	return p
}

// locality assembles Locality's result from a midplane or rack count.
func (s *countState[K]) locality(level machine.Level) (*LocalityResult, error) {
	dense := make([]int, s.k.n)
	total := 0
	for i, c := range s.keys() {
		dense[i] = int(c[1])
		total += int(c[1])
	}
	counts, err := locationCounts(level, dense)
	if err != nil {
		return nil, err
	}
	return localityFromCounts(level, counts, total)
}

// temporalEventKernel feeds Temporal's FATAL-side bins.
type temporalEventKernel struct {
	monthCap int
}

func (k *temporalEventKernel) Name() string { return "temporal-fatals" }

func (k *temporalEventKernel) NewState() EventState { return &temporalEventState{k: k} }

type temporalEventState struct {
	k         *temporalEventKernel
	fatalHour [24]int
	// months counts FATAL events ([0]) per month.
	months monthBins
}

//mira:hotpath
func (s *temporalEventState) ProcessBlock(v *scan.EventView, lo, hi int) {
	if s.months.yms == nil {
		s.months.init(s.k.monthCap) // on the first block, as in temporalJobState
	}
	sev, times := v.Sev, v.TimeUnix
	lastDay, m := int64(math.MinInt64), 0
	for i := lo; i < hi; i++ {
		if sev[i] != uint8(raslog.Fatal) {
			continue
		}
		d, sod := floorDay(times[i])
		if d != lastDay {
			lastDay, m = d, s.months.slot(ymOfDay(d))
		}
		s.fatalHour[sod/3600]++
		s.months.counts[m][0]++
	}
}

func (s *temporalEventState) Merge(other EventState) {
	o := other.(*temporalEventState)
	for i := 0; i < 24; i++ {
		s.fatalHour[i] += o.fatalHour[i]
	}
	s.months.merge(&o.months)
}

// ---------------------------------------------------------------------------
// Calendar helpers (integer civil-date math over Unix seconds, UTC)

// monthBins holds up to two counters per month, keyed by year-month code
// in first-appearance order.
type monthBins struct {
	yms    []int32
	counts [][2]int
}

func (b *monthBins) init(capacity int) {
	b.yms = make([]int32, 0, capacity)
	b.counts = make([][2]int, 0, capacity)
}

// slot returns the bin index of ym, appending a new bin on first
// appearance. The corpus is time-ordered, so the current month is almost
// always the last bin.
func (b *monthBins) slot(ym int32) int {
	if n := len(b.yms); n > 0 && b.yms[n-1] == ym {
		return n - 1
	}
	for i := range b.yms {
		if b.yms[i] == ym {
			return i
		}
	}
	b.yms = append(b.yms, ym)
	b.counts = append(b.counts, [2]int{})
	return len(b.yms) - 1
}

// merge folds o, which covers later rows, into b: o's new months append
// after b's, preserving global first-appearance order.
func (b *monthBins) merge(o *monthBins) {
	for i, ym := range o.yms {
		m := b.slot(ym)
		b.counts[m][0] += o.counts[i][0]
		b.counts[m][1] += o.counts[i][1]
	}
}

// floorDay splits a Unix timestamp into its day number and the second
// within that day. Both are floored, so an instant before 1970 falls on
// the previous day at a non-negative second.
func floorDay(sec int64) (day, secOfDay int64) {
	day, secOfDay = sec/86400, sec%86400
	if secOfDay < 0 {
		day--
		secOfDay += 86400
	}
	return day, secOfDay
}

// weekdayOfDay returns the time.Weekday index (Sunday = 0) of a day number;
// day 0, 1970-01-01, was a Thursday.
func weekdayOfDay(day int64) int {
	w := (day + 4) % 7
	if w < 0 {
		w += 7
	}
	return int(w)
}

// ymOfDay returns the year-month code (year*12 + month-1) of a day number,
// using Howard Hinnant's civil-from-days algorithm with floored eras.
func ymOfDay(day int64) int32 {
	e := day + 719468
	era := e / 146097
	if e < 0 && e%146097 != 0 {
		era--
	}
	doe := e - era*146097
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
