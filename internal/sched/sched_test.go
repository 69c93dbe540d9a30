package sched

import (
	"testing"
	"time"

	"repro/internal/machine"
)

var t0 = time.Date(2013, 4, 9, 0, 0, 0, 0, time.UTC)

func TestSubmitValidation(t *testing.T) {
	s := New(FCFS)
	if err := s.Submit(1, 300, time.Hour, t0); err == nil {
		t.Error("unschedulable size accepted")
	}
	if err := s.Submit(1, 512, 0, t0); err == nil {
		t.Error("zero walltime accepted")
	}
	if err := s.Submit(1, 512, time.Hour, t0); err != nil {
		t.Errorf("valid submit rejected: %v", err)
	}
}

func TestFCFSOrdering(t *testing.T) {
	s := New(FCFS)
	// Job 1 takes the whole machine; jobs 2, 3 must wait even though they fit.
	mustSubmit(t, s, 1, 49152, time.Hour)
	mustSubmit(t, s, 2, 512, time.Hour)
	mustSubmit(t, s, 3, 512, time.Hour)
	started := s.Schedule(t0)
	if len(started) != 1 || started[0].JobID != 1 {
		t.Fatalf("started = %v, want only job 1", started)
	}
	if s.QueueLen() != 2 {
		t.Errorf("queue len = %d", s.QueueLen())
	}
	if err := s.Complete(1); err != nil {
		t.Fatal(err)
	}
	started = s.Schedule(t0.Add(time.Hour))
	if len(started) != 2 {
		t.Fatalf("after completion started = %v", started)
	}
}

func TestFCFSHeadBlocks(t *testing.T) {
	s := New(FCFS)
	// Fill all but one midplane-pair, then ask for a big job: small job
	// behind it must NOT start under FCFS.
	mustSubmit(t, s, 1, 48*1024, 10*time.Hour) // 96 midplanes? 48*1024 nodes = 49152? no: 48*1024=49152
	started := s.Schedule(t0)
	if len(started) != 1 {
		t.Fatalf("setup: %v", started)
	}
	mustSubmit(t, s, 2, 32768, time.Hour)
	mustSubmit(t, s, 3, 512, time.Minute)
	if got := s.Schedule(t0); len(got) != 0 {
		t.Errorf("FCFS let a job jump the queue: %v", got)
	}
}

func TestEASYBackfill(t *testing.T) {
	s := New(EASYBackfill)
	// Occupy 64 of 96 midplanes until t0+10h.
	mustSubmit(t, s, 1, 32768, 10*time.Hour)
	if got := s.Schedule(t0); len(got) != 1 {
		t.Fatalf("setup: %v", got)
	}
	// Head job needs 64 midplanes -> must wait for job 1 (shadow = t0+10h).
	mustSubmit(t, s, 2, 32768, time.Hour)
	// Short small job fits in the 32 free midplanes and ends before shadow:
	// should backfill.
	mustSubmit(t, s, 3, 512, 2*time.Hour)
	// Long small job would end after shadow: must not backfill.
	mustSubmit(t, s, 4, 512, 20*time.Hour)
	started := s.Schedule(t0)
	if len(started) != 1 || started[0].JobID != 3 {
		t.Fatalf("backfill started = %v, want job 3 only", started)
	}
	// Under FCFS the same scenario starts nothing.
	f := New(FCFS)
	mustSubmit(t, f, 1, 32768, 10*time.Hour)
	f.Schedule(t0)
	mustSubmit(t, f, 2, 32768, time.Hour)
	mustSubmit(t, f, 3, 512, 2*time.Hour)
	if got := f.Schedule(t0); len(got) != 0 {
		t.Errorf("FCFS backfilled: %v", got)
	}
}

func TestBackfillNeverDelaysHead(t *testing.T) {
	s := New(EASYBackfill)
	mustSubmit(t, s, 1, 32768, 4*time.Hour) // 64 midplanes busy
	s.Schedule(t0)
	mustSubmit(t, s, 2, 32768, time.Hour)   // head: needs 64, shadow t0+4h
	mustSubmit(t, s, 3, 16384, 5*time.Hour) // ends after shadow: no backfill
	started := s.Schedule(t0)
	if len(started) != 0 {
		t.Errorf("backfill delayed head: %v", started)
	}
}

func TestCompleteUnknown(t *testing.T) {
	s := New(FCFS)
	if err := s.Complete(99); err == nil {
		t.Error("completing unknown job should fail")
	}
}

func TestRunningBlock(t *testing.T) {
	s := New(FCFS)
	mustSubmit(t, s, 1, 1024, time.Hour)
	started := s.Schedule(t0)
	if len(started) != 1 {
		t.Fatal("job did not start")
	}
	r, ok := s.running[1]
	if !ok || r.block != started[0].Block {
		t.Errorf("running block = %v, %v", r.block, ok)
	}
	if _, ok := s.running[2]; ok {
		t.Error("unknown job has a block")
	}
	if r.block.Midplanes != 2 {
		t.Errorf("busy = %d", r.block.Midplanes)
	}
}

func TestThroughputConservation(t *testing.T) {
	// Drive a synthetic day: every job submitted is eventually started and
	// completed exactly once, and the allocator ends empty.
	s := New(EASYBackfill)
	type active struct {
		id  int64
		end time.Time
	}
	now := t0
	var runningJobs []active
	started := map[int64]bool{}
	const n = 200
	sizes := []int{512, 1024, 2048, 4096, 8192}
	for id := int64(1); id <= n; id++ {
		mustSubmit(t, s, id, sizes[int(id)%len(sizes)], time.Hour)
	}
	for steps := 0; steps < 100000; steps++ {
		for _, d := range s.Schedule(now) {
			if started[d.JobID] {
				t.Fatalf("job %d started twice", d.JobID)
			}
			started[d.JobID] = true
			runningJobs = append(runningJobs, active{id: d.JobID, end: now.Add(30 * time.Minute)})
		}
		if len(runningJobs) == 0 {
			break
		}
		// Advance to earliest completion.
		earliest := 0
		for i, r := range runningJobs {
			if r.end.Before(runningJobs[earliest].end) {
				earliest = i
			}
		}
		now = runningJobs[earliest].end
		if err := s.Complete(runningJobs[earliest].id); err != nil {
			t.Fatal(err)
		}
		runningJobs = append(runningJobs[:earliest], runningJobs[earliest+1:]...)
	}
	if len(started) != n {
		t.Errorf("started %d of %d jobs", len(started), n)
	}
	if len(s.running) != 0 || s.QueueLen() != 0 {
		t.Errorf("scheduler not drained: running=%d queued=%d", len(s.running), s.QueueLen())
	}
	if _, ok := s.alloc.Alloc(machine.TotalNodes); !ok {
		t.Error("allocator not empty after every job completed")
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || EASYBackfill.String() != "easy-backfill" {
		t.Error("policy strings wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Error("unknown policy string wrong")
	}
}

func TestBlocksAreValid(t *testing.T) {
	s := New(EASYBackfill)
	for id := int64(1); id <= 20; id++ {
		mustSubmit(t, s, id, 2048, time.Hour)
	}
	for _, d := range s.Schedule(t0) {
		if err := d.Block.Validate(); err != nil {
			t.Errorf("job %d got invalid block: %v", d.JobID, err)
		}
		if d.Block.Nodes() != 2048 {
			t.Errorf("job %d block size %d", d.JobID, d.Block.Nodes())
		}
	}
}

func mustSubmit(t *testing.T, s *Scheduler, id int64, nodes int, wall time.Duration) {
	t.Helper()
	if err := s.Submit(id, nodes, wall, t0); err != nil {
		t.Fatalf("submit %d: %v", id, err)
	}
}

func TestMarkDownSkipsBusy(t *testing.T) {
	s := New(FCFS)
	mustSubmit(t, s, 1, 512, time.Hour)
	started := s.Schedule(t0)
	if len(started) != 1 {
		t.Fatal("setup")
	}
	busyMid := started[0].Block.BaseMidplane
	marked := s.MarkDown([]int{busyMid, busyMid + 1, busyMid + 2})
	if len(marked) != 2 {
		t.Fatalf("marked = %v, want the two idle midplanes", marked)
	}
	for _, id := range marked {
		if id == busyMid {
			t.Error("busy midplane marked down")
		}
	}
	if err := s.MarkUp(marked); err != nil {
		t.Fatal(err)
	}
	// MarkUp of a not-down midplane is an error.
	if err := s.MarkUp([]int{busyMid + 1}); err == nil {
		t.Error("MarkUp on serviced midplane accepted")
	}
}

func TestDownMidplanesBlockScheduling(t *testing.T) {
	s := New(FCFS)
	// Down all but one midplane: only a single 512-node job can start.
	var ids []int
	for id := 1; id < 96; id++ {
		ids = append(ids, id)
	}
	marked := s.MarkDown(ids)
	if len(marked) != 95 {
		t.Fatalf("marked %d", len(marked))
	}
	mustSubmit(t, s, 1, 512, time.Hour)
	mustSubmit(t, s, 2, 512, time.Hour)
	started := s.Schedule(t0)
	if len(started) != 1 || started[0].Block.BaseMidplane != 0 {
		t.Fatalf("started = %v, want one job on midplane 0", started)
	}
	if err := s.MarkUp(marked); err != nil {
		t.Fatal(err)
	}
	if got := s.Schedule(t0); len(got) != 1 {
		t.Fatalf("after MarkUp started = %v", got)
	}
}
