package core

import (
	"repro/internal/bitmap"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/sel"
)

// FusedScanWhere runs the fused analysis suite over the cohort a predicate
// selects, without materializing a filtered dataset: the compiled job and
// event selections push down into the scan engine, which skips unselected
// blocks and feeds the kernels only the selected row runs. The profile is
// bit-identical to FusedScan over MaterializeWhere(e) — same numbers a
// filter-then-scan would produce — at any worker count (DESIGN.md §14).
//
// A nil predicate profiles the whole corpus.
func (d *Dataset) FusedScanWhere(e sel.Expr, workers int) (*FusedProfile, error) {
	if e == nil {
		return d.FusedScan(workers)
	}
	jobSel, eventSel, err := d.CompileWhere(e)
	if err != nil {
		return nil, err
	}
	return d.fusedScanSel(jobSel, eventSel, workers)
}

// cohortJobCounts tallies the selected jobs and their task and I/O record
// counts (the Summary rows a materialized dataset would report).
func (d *Dataset) cohortJobCounts(jobSel *bitmap.Bitmap) (jobs, tasks, io int) {
	if jobSel == nil {
		return len(d.Jobs), len(d.Tasks), len(d.IO)
	}
	jobSel.Iterate(func(row uint32) bool {
		jobs++
		tasks += len(d.tasksOf[row])
		if d.ioOf[row] >= 0 {
			io++
		}
		return true
	})
	return jobs, tasks, io
}

// cohortSpan computes the observation window of the selected records, in
// Unix seconds, as exactly NewDataset's min/max walk would — first
// selected job seeds the bounds, jobs widen by submit/end, then events
// widen in an else-if pattern — so a cohort profile's calendar math
// matches a materialized dataset's bit for bit. An empty cohort yields
// the zero span.
//
// The walk reads only the column views and is short-cut wherever its
// answer is known: the job extremes are memoized for all jobs, and over
// the time-sorted event stream only the first and last selected events
// can widen a consistent (start ≤ end) span. An unsorted event view or an
// inverted job span falls back to walking every selected event.
func (d *Dataset) cohortSpan(w *wholeScan, jobSel, eventSel *bitmap.Bitmap) (start, end int64) {
	if jobSel == nil && eventSel == nil {
		s, e := d.Span()
		return s.Unix(), e.Unix()
	}
	var seeded bool
	if jobSel == nil {
		start, end, seeded = w.jobStart, w.jobEnd, true
	} else {
		start, end, seeded = d.jobExtremes(jobSel)
	}
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
	if !d.selIdx().eventTimesSorted() || (seeded && end < start) {
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
	jobs := d.Jobs
	tasks := d.Tasks
	io := d.IO
	if jobSel != nil {
		jobs = make([]joblog.Job, 0, jobSel.Cardinality())
		tasks = nil
		io = nil
		jobSel.Iterate(func(row uint32) bool {
			jobs = append(jobs, d.Jobs[row])
			tasks = append(tasks, d.tasksOf[row]...)
			if p := d.ioOf[row]; p >= 0 {
				io = append(io, d.IO[p])
			}
			return true
		})
	}
	events := d.Events
	if eventSel != nil {
		events = make([]raslog.Event, 0, eventSel.Cardinality())
		eventSel.Iterate(func(row uint32) bool {
			events = append(events, d.Events[row])
			return true
		})
	}
	return NewDataset(jobs, tasks, events, io)
}
