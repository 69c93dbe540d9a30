package core

import (
	"repro/internal/bitmap"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/scan"
	"repro/internal/sel"
	"repro/internal/tasklog"
)

// FusedScanWhere computes the Cohort a predicate selects without
// materializing a filtered dataset: the compiled job and event selections
// push down into the scan engine, which feeds the cohort kernels only the
// selected row runs. The result is bit-identical to the Cohort of
// FusedScan over MaterializeWhere(e) — same numbers a filter-then-scan
// would produce — at any worker count (DESIGN.md §14).
//
// A nil predicate is the whole corpus.
func (d *Dataset) FusedScanWhere(e sel.Expr, workers int) (*Cohort, error) {
	var jobSel, eventSel *bitmap.Bitmap
	if e != nil {
		var err error
		if jobSel, eventSel, err = d.CompileWhere(e); err != nil {
			return nil, err
		}
	}
	return d.cohortSel(jobSel, eventSel, workers)
}

// cohortSel computes the Cohort of the row selections (nil = all rows on
// that side). A selected job side runs the family and user tallies over
// its jobs and walks them once; a selected event side runs the severity
// count. An unconstrained side reads the whole-table memo.
func (d *Dataset) cohortSel(jobSel, eventSel *bitmap.Bitmap, workers int) (*Cohort, error) {
	w, err := d.wholeTable(workers)
	if err != nil {
		return nil, err
	}
	js := w.allJobs
	if jobSel != nil {
		jv := d.JobView()
		sts, err := scan.Run(jv, jv.N, jobSel, cohortJobKernels(jv), workers)
		if err != nil {
			return nil, err
		}
		js = jobSide{
			fams:  familyTotalsOf(sts[kFamilies].(*tallyState[uint8])),
			users: sts[kUsers].(*tallyState[int32]).groups(jv.Users),
			walk:  d.walkJobs(jobSel),
		}
	}
	sev := w.events[kSeverities].(*countState[uint8])
	if eventSel != nil {
		ev := d.EventView()
		sts, err := scan.Run(ev, ev.N, eventSel, cohortEventKernels(), workers)
		if err != nil {
			return nil, err
		}
		sev = sts[kSeverities].(*countState[uint8])
	}
	// Summary.Days is the span NewDataset would derive from the selected
	// records, as for a materialized dataset.
	start, end := d.cohortSpan(js.walk, jobSel, eventSel)
	c := newCohort(js, sev, start, end)
	return &c, nil
}

// walkJobs is the one walk over the selected jobs: it counts them, their
// task and I/O records and their distinct projects, and takes their
// submit/end extremes.
func (d *Dataset) walkJobs(jobSel *bitmap.Bitmap) jobWalk {
	jv := d.JobView()
	sub, end, proj := jv.SubmitUnix, jv.EndUnix, jv.ProjectID
	seen := make([]uint64, (len(jv.Projects)+63)/64)
	var w jobWalk
	jobSel.Iterate(func(row uint32) bool {
		w.jobs++
		w.tasks += len(d.tasksOf(int(row)))
		if d.ioOf[row] >= 0 {
			w.io++
		}
		w.widen(sub[row], end[row])
		if p, m := proj[row]>>6, uint64(1)<<(proj[row]&63); seen[p]&m == 0 {
			seen[p] |= m
			w.projects++
		}
		return true
	})
	return w
}

// cohortSpan computes the observation window of the selected records, in
// Unix seconds, as exactly NewDataset's min/max walk would — first
// selected job seeds the bounds, jobs widen by submit/end, then events
// widen in an else-if pattern — so a cohort's calendar math matches a
// materialized dataset's bit for bit. An empty cohort yields the zero
// span.
//
// The job half of the walk is jw, the walk over the cohort's jobs. Over
// the time-sorted event stream only the first and last selected events
// can widen a consistent (start ≤ end) span; an inverted job span falls
// back to walking every selected event.
func (d *Dataset) cohortSpan(jw jobWalk, jobSel, eventSel *bitmap.Bitmap) (start, end int64) {
	if jobSel == nil && eventSel == nil {
		s, e := d.Span()
		return s.Unix(), e.Unix()
	}
	start, end, seeded := jw.start, jw.end, jw.ok
	times := d.EventView().TimeUnix
	widen := func(row int) {
		t := times[row]
		if !seeded {
			start, end = t, t
			seeded = true
			return
		}
		if t < start {
			start = t
		} else if t > end {
			end = t
		}
	}
	if seeded && end < start {
		forEachSelected(eventSel, len(times), widen)
		return start, end
	}
	first, last := 0, len(times)-1
	if eventSel != nil {
		lo, ok := eventSel.Minimum()
		if !ok {
			return start, end
		}
		hi, _ := eventSel.Maximum()
		first, last = int(lo), int(hi)
	}
	if last < first {
		return start, end
	}
	widen(first)
	widen(last)
	return start, end
}

// forEachSelected visits the selected rows in ascending order; a nil
// selection visits all n rows.
func forEachSelected(sel *bitmap.Bitmap, n int, f func(row int)) {
	if sel == nil {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	sel.Iterate(func(row uint32) bool {
		f(int(row))
		return true
	})
}

// MaterializeWhere builds the filtered dataset a predicate describes: the
// selected jobs with their tasks and I/O records, and the selected events.
// It is the reference (copy) path FusedScanWhere makes unnecessary — kept
// for the equivalence suite, the cohort benchmarks, and callers that need
// a real Dataset to hand to non-fused analyses.
func (d *Dataset) MaterializeWhere(e sel.Expr) (*Dataset, error) {
	jobSel, eventSel, err := d.CompileWhere(e)
	if err != nil {
		return nil, err
	}
	return d.materializeSel(jobSel, eventSel)
}

func (d *Dataset) materializeSel(jobSel, eventSel *bitmap.Bitmap) (*Dataset, error) {
	var jobs []joblog.Job
	var tasks []tasklog.Task
	io := d.IO
	if jobSel == nil {
		jobs, tasks = d.JobRecords(), d.TaskRecords()
	} else {
		// Each selected job's tasks, in job order: the tasks a filter over
		// the job records would keep, without the orphans.
		jv, tv := d.JobView(), d.TaskView()
		jobs = make([]joblog.Job, 0, jobSel.Cardinality())
		io = nil
		jobSel.Iterate(func(row uint32) bool {
			jobs = append(jobs, joblog.Job{})
			jobRecord(&jobs[len(jobs)-1], jv, int(row))
			for _, t := range d.tasksOf(int(row)) {
				tasks = append(tasks, tasklog.Task{})
				taskRecord(&tasks[len(tasks)-1], tv, int(t))
			}
			if p := d.ioOf[row]; p >= 0 {
				io = append(io, d.IO[p])
			}
			return true
		})
	}
	events := d.EventRecords()
	if eventSel != nil {
		kept := make([]raslog.Event, 0, eventSel.Cardinality())
		eventSel.Iterate(func(row uint32) bool {
			kept = append(kept, events[row])
			return true
		})
		events = kept
	}
	return NewDataset(jobs, tasks, events, io)
}
