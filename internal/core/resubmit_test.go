package core

import (
	"testing"
	"time"

	"repro/internal/joblog"
)

// chainJobs builds one user's submission stream with a deterministic
// outcome pattern and fixed gaps.
func chainJobs(outcomes []bool, gap time.Duration) []joblog.Job {
	base := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	jobs := make([]joblog.Job, len(outcomes))
	for i, fails := range outcomes {
		exit := 0
		if fails {
			exit = 1
		}
		submit := base.Add(time.Duration(i) * gap)
		jobs[i] = joblog.Job{
			ID: int64(i + 1), User: "u1", Project: "p", Queue: "q",
			Submit: submit, Start: submit, End: submit.Add(10 * time.Minute),
			WalltimeReq: time.Hour, Nodes: 512, RanksPerNode: 16, NumTasks: 1,
			ExitStatus: exit,
		}
	}
	return jobs
}

func TestResubmissionScenario(t *testing.T) {
	// Pattern: F F F S S F F S S S — transitions:
	// after F (4 pairs): F F S F -> wait, enumerate in the assertions below.
	outcomes := []bool{true, true, true, false, false, true, true, false, false, false}
	jobs := chainJobs(outcomes, 2*time.Hour)
	d, err := NewDataset(jobs, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewJobOrders(d).Resubmission()
	if err != nil {
		t.Fatal(err)
	}
	// Pairs after failure: indices (0→1)F, (1→2)F, (2→3)S, (5→6)F, (6→7)S
	// = 5 pairs, 3 fail. Pairs after success: (3→4)S, (4→5)F, (7→8)S,
	// (8→9)S = 4 pairs, 1 fail.
	if r.PairsAfterFail != 5 || r.PairsAfterSuccess != 4 {
		t.Fatalf("pairs = %d/%d, want 5/4", r.PairsAfterFail, r.PairsAfterSuccess)
	}
	if r.PFailAfterFail != 0.6 {
		t.Errorf("P(f|f) = %v, want 0.6", r.PFailAfterFail)
	}
	if r.PFailAfterSuccess != 0.25 {
		t.Errorf("P(f|s) = %v, want 0.25", r.PFailAfterSuccess)
	}
	// Overall fail rate 5/10; lift = 0.6/0.5 = 1.2.
	if r.Lift < 1.199 || r.Lift > 1.201 {
		t.Errorf("lift = %v, want 1.2", r.Lift)
	}
	// All gaps are 2h.
	if r.MedianGapAfterFailH != 2 || r.MedianGapAfterSuccessH != 2 {
		t.Errorf("gaps = %v/%v, want 2/2", r.MedianGapAfterFailH, r.MedianGapAfterSuccessH)
	}
	if r.FastResubmitShare != 0 {
		t.Errorf("fast share = %v, want 0 at 2h gaps", r.FastResubmitShare)
	}
}

func TestResubmissionNeedsBothOutcomes(t *testing.T) {
	jobs := chainJobs([]bool{true, true, true}, time.Hour)
	d, err := NewDataset(jobs, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJobOrders(d).Resubmission(); err == nil {
		t.Error("all-failure stream accepted (no success pairs)")
	}
}

func TestResubmissionOnCorpus(t *testing.T) {
	d, c := dataset(t)
	r, err := NewJobOrders(d).Resubmission()
	if err != nil {
		t.Fatal(err)
	}
	if c.Truth.Resubmissions == 0 {
		t.Fatal("corpus has no resubmissions")
	}
	if r.PFailAfterFail <= r.PFailAfterSuccess {
		t.Errorf("no repetition: %v vs %v", r.PFailAfterFail, r.PFailAfterSuccess)
	}
	if r.Lift <= 1 {
		t.Errorf("lift = %v, want > 1", r.Lift)
	}
	if r.MedianGapAfterFailH >= r.MedianGapAfterSuccessH {
		t.Errorf("failure gaps %v not shorter than success gaps %v",
			r.MedianGapAfterFailH, r.MedianGapAfterSuccessH)
	}
}
