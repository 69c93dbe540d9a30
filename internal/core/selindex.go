package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmap"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/raslog"
	"repro/internal/scan"
	"repro/internal/sel"
)

// Selection columns. A predicate addresses either the job table or the RAS
// event table; the compiler refuses expressions that mix the two inside one
// conjunct (CompileWhere splits top-level ANDs by domain).
//
//	job columns:   user, project, exit (family name), nodes, dur (seconds),
//	               submit (timestamp)
//	event columns: sev, cat, comp, midplane (Rxx-My), rack (Rxx),
//	               time (timestamp)
//
// Dictionary columns (user, project, exit, sev, cat, comp, midplane, rack)
// are served from per-key bitmap indexes built lazily over the SoA column
// views; submit uses a coarse per-day bucket index with boundary
// refinement; event time exploits the time-sorted stream and compiles to a
// single run container. The numeric columns (nodes, dur) compile by a
// cached column scan. See DESIGN.md §14.

type selDomain uint8

const (
	domJob selDomain = iota
	domEvent
)

func (d selDomain) String() string {
	if d == domEvent {
		return "event"
	}
	return "job"
}

// domainOf resolves a column name to its table.
func domainOf(col string) (selDomain, error) {
	switch col {
	case "user", "project", "exit", "nodes", "dur", "submit":
		return domJob, nil
	case "sev", "cat", "comp", "midplane", "rack", "time":
		return domEvent, nil
	}
	return 0, fmt.Errorf("core: unknown selection column %q", col)
}

// selIndexes is the lazily built selection machinery over one pair of
// column views. Each dimension index (dimSpecs) and each table's universe
// builds once in its par.Memo; compiled selections cache by canonical
// expression string. Either view may be nil when the corresponding domain
// is never queried (mirafilter compiles event predicates without a job
// view).
type selIndexes struct {
	jv *scan.JobView
	ev *scan.EventView

	uni     [2]par.Memo[*bitmap.Bitmap] // indexed by selDomain
	dims    [numDims]par.Memo[*dimIndex]
	built   [numDims]atomic.Pointer[dimIndex] // each dims entry once built
	allDims par.Memo[struct{}]                // every dims entry built (BuildIndexes)

	// cache maps canonical expression keys to compiled selections. It is
	// bounded: order holds the resident keys as a ring, oldest at next,
	// and a full cache evicts the oldest entry on insert.
	mu    sync.Mutex
	cache map[string]*bitmap.Bitmap
	order []string
	next  int
}

// selCacheCap bounds the compiled-selection cache. A cohort query caches
// one entry per expression node, so the bound holds the last few dozen
// queries; a stream of unique predicates would otherwise grow the cache
// without limit.
const selCacheCap = 256

func newSelIndexes(jv *scan.JobView, ev *scan.EventView) *selIndexes {
	return &selIndexes{jv: jv, ev: ev, cache: map[string]*bitmap.Bitmap{}}
}

// selIdx returns the dataset's selection machinery, creating it on first
// use. Index dimensions inside build lazily on first touch.
func (d *Dataset) selIdx() *selIndexes {
	x, _ := d.selx.Get(func() (*selIndexes, error) { return newSelIndexes(d.JobView(), d.EventView()), nil })
	return x
}

// dimKey names one selection-index dimension: its position in dimSpecs
// and in IndexStats.
type dimKey int

const (
	dimUser dimKey = iota
	dimProject
	dimExit
	dimSubmit
	dimSev
	dimCat
	dimComp
	dimMidplane
	dimRack
	numDims
)

// dimSpec describes one dimension's bitmap index: the table and column it
// covers, how its slot bitmaps build and, for a dictionary column, each
// slot's value.
type dimSpec struct {
	dom selDomain
	col string
	// build returns the slot bitmaps, slot s holding the rows of slot s,
	// and the key of slot 0 (the first submit day; 0 elsewhere).
	build func(x *selIndexes) (slots []bitmap.Bitmap, base int64)
	// dict returns a dictionary column's value per slot; nil for a
	// column whose values parse to their slot.
	dict func(x *selIndexes) []string
}

// dimSpecs lists the dimensions in IndexStats order.
var dimSpecs = [numDims]dimSpec{
	dimUser: {domJob, "user", func(x *selIndexes) ([]bitmap.Bitmap, int64) {
		return columnSlots(len(x.jv.Users), x.jv.UserID), 0
	}, func(x *selIndexes) []string { return x.jv.Users }},
	dimProject: {domJob, "project", func(x *selIndexes) ([]bitmap.Bitmap, int64) {
		return columnSlots(len(x.jv.Projects), x.jv.ProjectID), 0
	}, func(x *selIndexes) []string { return x.jv.Projects }},
	dimExit: {domJob, "exit", func(x *selIndexes) ([]bitmap.Bitmap, int64) {
		return columnSlots(joblog.NumFamilies, x.jv.Family), 0
	}, nil},
	dimSubmit: {domJob, "submit", func(x *selIndexes) ([]bitmap.Bitmap, int64) { return submitSlots(x.jv.SubmitUnix) }, nil},
	dimSev: {domEvent, "sev", func(x *selIndexes) ([]bitmap.Bitmap, int64) {
		return columnSlots(4, x.ev.Sev), 0
	}, nil},
	dimCat: {domEvent, "cat", func(x *selIndexes) ([]bitmap.Bitmap, int64) {
		return columnSlots(len(x.ev.Cats), x.ev.CatID), 0
	}, func(x *selIndexes) []string { return x.ev.Cats }},
	dimComp: {domEvent, "comp", func(x *selIndexes) ([]bitmap.Bitmap, int64) {
		return columnSlots(len(x.ev.Comps), x.ev.CompID), 0
	}, func(x *selIndexes) []string { return x.ev.Comps }},
	dimMidplane: {domEvent, "midplane", func(x *selIndexes) ([]bitmap.Bitmap, int64) {
		return columnSlots(machine.TotalMidplanes, x.ev.MidplaneID), 0
	}, nil},
	dimRack: {domEvent, "rack", func(x *selIndexes) ([]bitmap.Bitmap, int64) {
		return columnSlots(machine.NumRacks, x.ev.RackID), 0
	}, nil},
}

// dimIndex is one built dimension: a bitmap per slot, the key of slot 0,
// and a dictionary column's value → slot map.
type dimIndex struct {
	slots []bitmap.Bitmap
	base  int64
	ids   map[string]int32
}

// rows is the row count of the domain's table.
func (x *selIndexes) rows(dom selDomain) int {
	if dom == domEvent {
		return x.ev.N
	}
	return x.jv.N
}

// testHookDimBuild, when set, is called each time a dimension index builds.
var testHookDimBuild func(x *selIndexes, k dimKey)

// dim returns dimension k's index, building it on first use; concurrent
// first callers share the one build.
func (x *selIndexes) dim(k dimKey) *dimIndex {
	d, _ := x.dims[k].Get(func() (*dimIndex, error) {
		if testHookDimBuild != nil {
			testHookDimBuild(x, k)
		}
		spec := &dimSpecs[k]
		d := &dimIndex{}
		d.slots, d.base = spec.build(x)
		if spec.dict != nil {
			dict := spec.dict(x)
			d.ids = make(map[string]int32, len(dict))
			for i, v := range dict {
				d.ids[v] = int32(i)
			}
		}
		x.built[k].Store(d)
		return d, nil
	})
	return d
}

// chunkRows is the number of rows one bitmap chunk covers.
const chunkRows = 1 << 16

// columnSlots returns the slot bitmaps of a column holding each row's slot
// in [0, n), or a negative slot for a row indexed nowhere.
func columnSlots[S int32 | uint8](n int, col []S) []bitmap.Bitmap {
	return slotBitmaps(n, len(col), func(lo, hi int) []S { return col[lo:hi] })
}

// submitSlots buckets the jobs by submit day (floorDay, UTC): slot k holds
// day base+k. floorDay is monotone, so the extreme days are the days of
// the extreme submit times, and each row's day is computed once, in the
// chunk being indexed.
func submitSlots(sub []int64) ([]bitmap.Bitmap, int64) {
	if len(sub) == 0 {
		return nil, 0
	}
	first, last := sub[0], sub[0]
	for _, u := range sub {
		first, last = min(first, u), max(last, u)
	}
	minDay, _ := floorDay(first)
	maxDay, _ := floorDay(last)
	days := make([]int32, min(len(sub), chunkRows))
	return slotBitmaps(int(maxDay-minDay)+1, len(sub), func(lo, hi int) []int32 {
		d := days[:hi-lo]
		for i, u := range sub[lo:hi] {
			day, _ := floorDay(u)
			d[i] = int32(day - minDay)
		}
		return d
	}), minDay
}

// slotBitmaps is the index build kernel: it returns n bitmaps, bitmap s
// holding the rows whose slot is s, given the slots of rows [lo, hi) from
// chunk. It takes the rows one 65,536-row chunk at a time, the rows of one
// bitmap chunk key, so its working set stays cache-sized: the chunk's
// slots, a count per slot and the chunk's rows grouped by slot. A counting
// sort groups the rows' low 16 bits by slot, each group ascending, and
// each non-empty group becomes that slot's container for the chunk. The
// rows indexed nowhere (slot -1) count and sort as one more group, ahead
// of slot 0, so neither pass branches on the slot.
func slotBitmaps[S int32 | uint8](n, rows int, chunk func(lo, hi int) []S) []bitmap.Bitmap {
	slots := make([]bitmap.Bitmap, n)
	// next[s+1] counts slot s's rows, then is where its next row goes; the
	// group of slot -1 starts at 0. Once the chunk's rows are placed,
	// next[s+1] is where slot s ends and next[s] where it starts.
	next := make([]int32, n+1)
	lows := make([]uint16, min(rows, chunkRows))
	for lo := 0; lo < rows; lo += chunkRows {
		hi := min(rows, lo+chunkRows)
		sl := chunk(lo, hi)
		clear(next)
		for _, s := range sl {
			next[int(s)+1]++
		}
		var start int32
		for g, c := range next {
			next[g] = start
			start += c
		}
		for i, s := range sl {
			g := int(s) + 1
			lows[next[g]] = uint16(i)
			next[g]++
		}
		key := uint16(lo / chunkRows)
		for s := range slots {
			if next[s] < next[s+1] {
				slots[s].AppendChunk(key, lows[next[s]:next[s+1]])
			}
		}
	}
	return slots
}

// dimOf returns the dimension indexing column col.
func dimOf(col string) (dimKey, bool) {
	for k := range dimSpecs {
		if dimSpecs[k].col == col {
			return dimKey(k), true
		}
	}
	return 0, false
}

func (x *selIndexes) universe(dom selDomain) *bitmap.Bitmap {
	u, _ := x.uni[dom].Get(func() (*bitmap.Bitmap, error) {
		u := bitmap.New()
		u.AddRange(0, uint32(x.rows(dom)))
		u.Optimize()
		return u, nil
	})
	return u
}

// timeValue parses a timestamp literal: a date, a date-time, an RFC 3339
// string, or raw Unix seconds. Dates and date-times read as UTC.
func timeValue(s string) (int64, error) {
	for _, layout := range []string{"2006-01-02", "2006-01-02T15:04:05", "2006-01-02 15:04:05", time.RFC3339} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.Unix(), nil
		}
	}
	if u, err := strconv.ParseInt(s, 10, 64); err == nil {
		return u, nil
	}
	return 0, fmt.Errorf("core: cannot parse %q as a timestamp", s)
}

// SelectJobs compiles a job-domain predicate to the bitmap of matching job
// rows. The result is cached and shared — callers must not modify it.
func (d *Dataset) SelectJobs(e sel.Expr) (*bitmap.Bitmap, error) {
	return d.selIdx().selectDomain(e, domJob)
}

// SelectEvents compiles an event-domain predicate to the bitmap of
// matching event rows. The result is cached and shared — callers must not
// modify it.
func (d *Dataset) SelectEvents(e sel.Expr) (*bitmap.Bitmap, error) {
	return d.selIdx().selectDomain(e, domEvent)
}

// SelectEventsView compiles an event-domain predicate against a standalone
// event view, without a Dataset — the mirafilter -where path. The view
// must be in time order, as a Dataset's is: a time predicate selects a
// contiguous run of it. Indexes are transient; repeated queries over one
// view should reuse a Dataset.
func SelectEventsView(ev *scan.EventView, e sel.Expr) (*bitmap.Bitmap, error) {
	return newSelIndexes(nil, ev).selectDomain(e, domEvent)
}

// CompileWhere splits a predicate into its job- and event-side selections:
// top-level conjuncts apply to whichever table their columns address, and
// a conjunct mixing the two tables is an error. A nil return on either
// side means that table is unconstrained.
func (d *Dataset) CompileWhere(e sel.Expr) (jobSel, eventSel *bitmap.Bitmap, err error) {
	var jobs, events []sel.Expr
	if err := splitConjuncts(e, &jobs, &events); err != nil {
		return nil, nil, err
	}
	x := d.selIdx()
	jobs, events = coalesceRanges(jobs), coalesceRanges(events)
	if len(jobs) > 0 {
		if jobSel, err = x.selectDomain(conjoin(jobs), domJob); err != nil {
			return nil, nil, err
		}
	}
	if len(events) > 0 {
		if eventSel, err = x.selectDomain(conjoin(events), domEvent); err != nil {
			return nil, nil, err
		}
	}
	return jobSel, eventSel, nil
}

// splitConjuncts flattens top-level ANDs and buckets each conjunct by the
// table its columns address.
func splitConjuncts(e sel.Expr, jobs, events *[]sel.Expr) error {
	if and, ok := e.(sel.And); ok {
		if err := splitConjuncts(and.L, jobs, events); err != nil {
			return err
		}
		return splitConjuncts(and.R, jobs, events)
	}
	cols := sel.Columns(e)
	if len(cols) == 0 {
		return fmt.Errorf("core: predicate %s references no columns", e)
	}
	dom, err := domainOf(cols[0])
	if err != nil {
		return err
	}
	for _, c := range cols[1:] {
		d, err := domainOf(c)
		if err != nil {
			return err
		}
		if d != dom {
			return fmt.Errorf("core: predicate %s mixes job and event columns; combine them with a top-level 'and'", e)
		}
	}
	if dom == domEvent {
		*events = append(*events, e)
	} else {
		*jobs = append(*jobs, e)
	}
	return nil
}

// coalesceRanges merges a column's lower-bound-only and upper-bound-only
// Range conjuncts into one two-sided Range, so `submit >= a and submit <
// b` compiles as one leaf over [a, b) instead of two one-sided leaves
// (each of which would cover most of the table) and their intersection.
// The merged Range takes the place of the first of the pair. A column
// with more than one lower or upper bound, or a bound that does not
// parse, stays as written, so the selected rows and any error are those
// of the uncoalesced conjunction.
func coalesceRanges(es []sel.Expr) []sel.Expr {
	type pair struct{ lo, hi, nLo, nHi int }
	var cols map[string]*pair
	for i, e := range es {
		r, ok := e.(sel.Range)
		if !ok || (r.Lo == "") == (r.Hi == "") {
			continue
		}
		if _, _, err := rangeBounds(r); err != nil {
			continue
		}
		if cols == nil {
			cols = map[string]*pair{}
		}
		p := cols[r.Col]
		if p == nil {
			p = &pair{}
			cols[r.Col] = p
		}
		if r.Lo != "" {
			p.lo = i
			p.nLo++
		} else {
			p.hi = i
			p.nHi++
		}
	}
	var drop []bool
	for _, p := range cols {
		if p.nLo != 1 || p.nHi != 1 {
			continue
		}
		lo, hi := es[p.lo].(sel.Range), es[p.hi].(sel.Range)
		merged := sel.Range{Col: lo.Col, Lo: lo.Lo, LoIncl: lo.LoIncl, Hi: hi.Hi, HiIncl: hi.HiIncl}
		if drop == nil {
			es = append([]sel.Expr(nil), es...)
			drop = make([]bool, len(es))
		}
		es[min(p.lo, p.hi)] = merged
		drop[max(p.lo, p.hi)] = true
	}
	if drop == nil {
		return es
	}
	out := es[:0]
	for i, e := range es {
		if !drop[i] {
			out = append(out, e)
		}
	}
	return out
}

func conjoin(es []sel.Expr) sel.Expr {
	e := es[0]
	for _, r := range es[1:] {
		e = sel.And{L: e, R: r}
	}
	return e
}

// selectDomain compiles e for one table, checking every referenced column
// belongs to it, with the whole-expression result cached by canonical form.
func (x *selIndexes) selectDomain(e sel.Expr, dom selDomain) (*bitmap.Bitmap, error) {
	for _, c := range sel.Columns(e) {
		d, err := domainOf(c)
		if err != nil {
			return nil, err
		}
		if d != dom {
			return nil, fmt.Errorf("core: column %q is a %s column, not a %s column", c, d, dom)
		}
	}
	if dom == domJob && x.jv == nil {
		return nil, fmt.Errorf("core: no job view to select over")
	}
	if dom == domEvent && x.ev == nil {
		return nil, fmt.Errorf("core: no event view to select over")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.compile(e, dom)
}

// compile evaluates the expression tree bottom-up as bitmap algebra. Every
// node's result caches under its canonical string, so shared subtrees and
// repeated queries cost one evaluation. Called with x.mu held.
func (x *selIndexes) compile(e sel.Expr, dom selDomain) (*bitmap.Bitmap, error) {
	key := dom.String() + ":" + e.String()
	if b, ok := x.cache[key]; ok {
		return b, nil
	}
	var b *bitmap.Bitmap
	var err error
	switch v := e.(type) {
	case sel.And:
		b, err = x.binary(v.L, v.R, dom, (*bitmap.Bitmap).And)
	case sel.Or:
		b, err = x.binary(v.L, v.R, dom, (*bitmap.Bitmap).Or)
	case sel.Not:
		var inner *bitmap.Bitmap
		if inner, err = x.compile(v.X, dom); err == nil {
			b = bitmap.New().AndNot(x.universe(dom), inner)
		}
	case sel.Eq:
		b, err = x.leafEq(dom, v.Col, v.Val)
	case sel.In:
		b = bitmap.New() // empty list selects nothing
		for _, val := range v.Vals {
			var one *bitmap.Bitmap
			if one, err = x.leafEq(dom, v.Col, val); err != nil {
				break
			}
			b = bitmap.New().Or(b, one)
		}
	case sel.Range:
		b, err = x.leafRange(dom, v)
	default:
		err = fmt.Errorf("core: unsupported selection expression %T", e)
	}
	if err != nil {
		return nil, err
	}
	x.remember(key, b)
	return b, nil
}

// remember caches a compiled selection, evicting the oldest entry when
// the cache is full. Resident entries never change, so a repeated query
// gets the same bitmap back until its entry ages out. Called with x.mu
// held, for a key not in the cache.
func (x *selIndexes) remember(key string, b *bitmap.Bitmap) {
	if len(x.order) < selCacheCap {
		x.order = append(x.order, key)
	} else {
		delete(x.cache, x.order[x.next])
		x.order[x.next] = key
		x.next = (x.next + 1) % selCacheCap
	}
	x.cache[key] = b
}

func (x *selIndexes) binary(l, r sel.Expr, dom selDomain, op func(dst, a, b *bitmap.Bitmap) *bitmap.Bitmap) (*bitmap.Bitmap, error) {
	lb, err := x.compile(l, dom)
	if err != nil {
		return nil, err
	}
	rb, err := x.compile(r, dom)
	if err != nil {
		return nil, err
	}
	return op(bitmap.New(), lb, rb), nil
}

// leafEq resolves one column == value comparison to its index bitmap (or a
// scan for the numeric columns). An unknown dictionary value selects
// nothing; a malformed value (bad severity, bad location, bad number) is
// an error.
func (x *selIndexes) leafEq(dom selDomain, col, val string) (*bitmap.Bitmap, error) {
	if k, ok := dimOf(col); ok && dimSpecs[k].dict != nil {
		d := x.dim(k)
		if id, ok := d.ids[val]; ok {
			return &d.slots[id], nil
		}
		return bitmap.New(), nil
	}
	switch col {
	case "exit":
		code := joblog.FamilyCode(joblog.ExitFamily(val))
		if string(joblog.FamilyOfCode(code)) != val {
			return nil, fmt.Errorf("core: unknown exit family %q", val)
		}
		return &x.dim(dimExit).slots[code], nil
	case "nodes":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: nodes value %q is not a number", val)
		}
		return x.scanJobCol(col, n, n), nil
	case "dur":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: dur value %q is not a number", val)
		}
		return x.scanJobCol(col, n, n), nil
	case "submit":
		u, err := timeValue(val)
		if err != nil {
			return nil, err
		}
		return x.submitRange(u, u), nil
	case "sev":
		s, err := raslog.ParseSeverity(val)
		if err != nil {
			return nil, fmt.Errorf("core: %q is not a severity (INFO, WARN, FATAL)", val)
		}
		return &x.dim(dimSev).slots[s], nil
	case "midplane":
		loc, err := machine.ParseLocation(val)
		if err != nil {
			return nil, err
		}
		id, err := loc.MidplaneID()
		if err != nil {
			return nil, fmt.Errorf("core: %q is not a midplane (Rxx-My)", val)
		}
		return &x.dim(dimMidplane).slots[id], nil
	case "rack":
		loc, err := machine.ParseLocation(val)
		if err != nil {
			return nil, err
		}
		if loc.Level() != machine.LevelRack {
			return nil, fmt.Errorf("core: %q is not a rack (Rxx)", val)
		}
		return &x.dim(dimRack).slots[loc.RackIndex()], nil
	case "time":
		u, err := timeValue(val)
		if err != nil {
			return nil, err
		}
		return x.timeRange(u, u), nil
	}
	return nil, fmt.Errorf("core: unknown selection column %q", col)
}

// leafRange resolves a bounded comparison. Bounds normalize to an
// inclusive [lo, hi] over the column's integer form.
func (x *selIndexes) leafRange(dom selDomain, r sel.Range) (*bitmap.Bitmap, error) {
	lo, hi, err := rangeBounds(r)
	if err != nil {
		return nil, err
	}
	if lo > hi {
		return bitmap.New(), nil
	}
	switch r.Col {
	case "nodes", "dur":
		return x.scanJobCol(r.Col, lo, hi), nil
	case "submit":
		return x.submitRange(lo, hi), nil
	case "time":
		return x.timeRange(lo, hi), nil
	}
	return nil, fmt.Errorf("core: column %q does not support range comparison", r.Col)
}

// rangeBounds normalizes a Range's bounds to an inclusive [lo, hi] over
// the column's integer form (Unix seconds for the timestamp columns); a
// missing bound is the int64 extreme.
func rangeBounds(r sel.Range) (lo, hi int64, err error) {
	isTime := r.Col == "submit" || r.Col == "time"
	bound := func(s string, missing int64) (int64, error) {
		if s == "" {
			return missing, nil
		}
		if isTime {
			return timeValue(s)
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("core: %s value %q is not a number", r.Col, s)
		}
		return n, nil
	}
	if lo, err = bound(r.Lo, math.MinInt64); err != nil {
		return 0, 0, err
	}
	if hi, err = bound(r.Hi, math.MaxInt64); err != nil {
		return 0, 0, err
	}
	if r.Lo != "" && !r.LoIncl {
		lo++
	}
	if r.Hi != "" && !r.HiIncl {
		hi--
	}
	return lo, hi, nil
}

// scanJobCol selects jobs whose numeric column lies in [lo, hi] by a
// column sweep. Rows visit in ascending order, so the build hits the
// bitmap's append fast path.
func (x *selIndexes) scanJobCol(col string, lo, hi int64) *bitmap.Bitmap {
	b := bitmap.New()
	switch col {
	case "nodes":
		for i, n := range x.jv.Nodes {
			if v := int64(n); v >= lo && v <= hi {
				b.Add(uint32(i))
			}
		}
	case "dur":
		for i, v := range x.jv.DurSec {
			if v >= lo && v <= hi {
				b.Add(uint32(i))
			}
		}
	}
	b.Optimize()
	return b
}

// submitRange selects jobs with lo ≤ SubmitUnix ≤ hi from the per-day
// buckets: fully covered days union wholesale, the two boundary days
// refine against the column. One OrAll folds every day in, so a window's
// cost is linear in its size.
func (x *selIndexes) submitRange(lo, hi int64) *bitmap.Bitmap {
	idx := x.dim(dimSubmit)
	buckets, base := idx.slots, idx.base
	if len(buckets) == 0 {
		return bitmap.New()
	}
	sub := x.jv.SubmitUnix
	loDay, _ := floorDay(lo)
	hiDay, _ := floorDay(hi)
	lastDay := base + int64(len(buckets)-1)
	if loDay > lastDay || hiDay < base {
		return bitmap.New()
	}
	loDay, hiDay = max(loDay, base), min(hiDay, lastDay)
	days := make([]*bitmap.Bitmap, 0, hiDay-loDay+1)
	for day := loDay; day <= hiDay; day++ {
		bucket := &buckets[day-base]
		dayLo, dayHi := day*86400, day*86400+86399
		if dayLo >= lo && dayHi <= hi {
			days = append(days, bucket)
			continue
		}
		edge := bitmap.New()
		bucket.Iterate(func(row uint32) bool {
			if u := sub[row]; u >= lo && u <= hi {
				edge.Add(row)
			}
			return true
		})
		days = append(days, edge)
	}
	res := bitmap.New().OrAll(days)
	res.Optimize()
	return res
}

// timeRange selects events with lo ≤ TimeUnix ≤ hi. The event view is in
// time order, so the selection is one contiguous run found by binary
// search.
func (x *selIndexes) timeRange(lo, hi int64) *bitmap.Bitmap {
	times := x.ev.TimeUnix
	b := bitmap.New()
	first := sort.Search(len(times), func(i int) bool { return times[i] >= lo })
	last := sort.Search(len(times), func(i int) bool { return times[i] > hi })
	if first < last {
		b.AddRange(uint32(first), uint32(last))
	}
	return b
}

// IndexStat describes one selection-index dimension: whether it is built
// yet, how many key bitmaps it holds, how many row ids they index in total,
// and their compressed payload size. A dimension not yet built reports
// zero keys, rows and bytes. `mirapack -info` prints these.
type IndexStat struct {
	Domain string // "job" or "event"
	Column string
	Built  bool
	Keys   int // dictionary slots with at least one row
	Rows   int // total indexed rows across keys
	Bytes  int // compressed size of all key bitmaps
}

// IndexStats reports each selection-index dimension's cardinality and
// compressed size, in fixed dimension order. It builds nothing: a
// dimension builds on the first selection that reads it, or in
// BuildIndexes.
func (d *Dataset) IndexStats() []IndexStat {
	x := d.selIdx()
	stats := make([]IndexStat, numDims)
	for k := range dimSpecs {
		st := &stats[k]
		st.Domain, st.Column = dimSpecs[k].dom.String(), dimSpecs[k].col
		idx := x.built[k].Load()
		if idx == nil {
			continue
		}
		st.Built = true
		for j := range idx.slots {
			b := &idx.slots[j]
			if b.IsEmpty() {
				continue
			}
			st.Keys++
			st.Rows += b.Cardinality()
			st.Bytes += b.SizeBytes()
		}
	}
	return stats
}

// BuildIndexes builds every selection-index dimension not yet built, at
// GOMAXPROCS workers: the builds are independent, and a query that builds
// one of them meanwhile shares that build through the dimension's memo.
// Once all are built it returns at once and starts no goroutine.
func (d *Dataset) BuildIndexes() {
	x := d.selIdx()
	_, err := x.allDims.Get(func() (struct{}, error) {
		return struct{}{}, par.ForEach(context.Background(), int(numDims), 0, func(k int) error {
			x.dim(dimKey(k))
			return nil
		})
	})
	if err != nil {
		panic(err) // a dimension build panicked
	}
}
