package core

import (
	"testing"

	"repro/internal/machine"
)

func TestScheduling(t *testing.T) {
	d, c := dataset(t)
	res, err := NewJobOrders(d).Scheduling()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WaitBySize) == 0 {
		t.Fatal("no wait buckets")
	}
	totalJobs := 0
	for _, b := range res.WaitBySize {
		totalJobs += b.Jobs
		if !machine.ValidBlockNodes(b.Nodes) {
			t.Errorf("bucket size %d not a block size", b.Nodes)
		}
		if b.P95Wait < b.MedianWait {
			t.Errorf("p95 wait < median for %d nodes", b.Nodes)
		}
		if b.MedianWait < 0 {
			t.Errorf("negative wait for %d nodes", b.Nodes)
		}
	}
	if totalJobs != len(c.Jobs) {
		t.Errorf("wait buckets cover %d of %d jobs", totalJobs, len(c.Jobs))
	}
	// Bigger jobs wait longer on a space-shared machine with backlog.
	if res.SpearmanSizeWait <= 0 {
		t.Errorf("Spearman(size, wait) = %v, want positive", res.SpearmanSizeWait)
	}
	// Walltime accuracy: both outcomes present; ratios in (0, ~1.1].
	if len(res.Accuracy) != 2 {
		t.Fatalf("accuracy rows = %d", len(res.Accuracy))
	}
	for _, a := range res.Accuracy {
		if a.MedianRatio <= 0 || a.MedianRatio > 1.01 {
			t.Errorf("%s: median ratio %v", a.Outcome, a.MedianRatio)
		}
		if a.UnderTenPct < 0 || a.UnderTenPct > 1 {
			t.Errorf("%s: under-10%% share %v", a.Outcome, a.UnderTenPct)
		}
	}
	// Failed jobs use less of their request than succeeded ones (they die
	// early), so their median ratio is lower.
	var okRatio, failRatio float64
	for _, a := range res.Accuracy {
		if a.Outcome == "success" {
			okRatio = a.MedianRatio
		} else {
			failRatio = a.MedianRatio
		}
	}
	if failRatio >= okRatio {
		t.Errorf("failed ratio %v ≥ success ratio %v", failRatio, okRatio)
	}
	// Requested walltime is informative for successes (duration drawn as a
	// fraction of the request).
	if res.PearsonReqUsed < 0.5 {
		t.Errorf("Pearson(req, used) = %v, want strong", res.PearsonReqUsed)
	}
}

func TestLifePhases(t *testing.T) {
	d, c := dataset(t)
	phases, err := d.LifePhases(6, DefaultFilterRule())
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 6 {
		t.Fatalf("phases = %d", len(phases))
	}
	totalJobs, totalInterrupts := 0, 0
	for i, p := range phases {
		totalJobs += p.Jobs
		totalInterrupts += p.Interruptions
		if p.FailRate < 0 || p.FailRate > 1 {
			t.Errorf("phase %d: fail rate %v", i, p.FailRate)
		}
		if p.EndDay <= p.StartDay {
			t.Errorf("phase %d: empty day range", i)
		}
	}
	if totalJobs != len(c.Jobs) {
		t.Errorf("phases cover %d of %d jobs", totalJobs, len(c.Jobs))
	}
	mtti, err := d.MTTI(DefaultFilterRule())
	if err != nil {
		t.Fatal(err)
	}
	if totalInterrupts != mtti.Interruptions {
		t.Errorf("phase interrupts %d != %d", totalInterrupts, mtti.Interruptions)
	}
	// Burn-in: the first phase has a smaller MTTI (more incidents) than the
	// mid-life phases on a 90-day corpus (bathtub injection, ×1.9 → ×1).
	if phases[0].MTTIDays <= 0 {
		t.Skip("no interruptions in first phase on this seed")
	}
	mid := (phases[2].MTTIDays + phases[3].MTTIDays) / 2
	if mid > 0 && phases[0].MTTIDays >= mid {
		t.Errorf("burn-in not visible: first %v vs mid %v", phases[0].MTTIDays, mid)
	}
}

func TestLifePhasesErrors(t *testing.T) {
	d, _ := dataset(t)
	if _, err := d.LifePhases(1, DefaultFilterRule()); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := d.LifePhases(4, FilterRule{}); err == nil {
		t.Error("invalid rule accepted")
	}
}

func TestWaste(t *testing.T) {
	d, c := dataset(t)
	cls := d.ClassifyByExit()
	w, err := d.Waste(cls)
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalCoreHours <= 0 || w.WastedCoreHours <= 0 {
		t.Fatalf("degenerate waste: %+v", w)
	}
	if w.WastedCoreHours >= w.TotalCoreHours {
		t.Error("wasted ≥ total")
	}
	if got := w.UserCoreHours + w.SystemCoreHours; got < w.WastedCoreHours*0.999 || got > w.WastedCoreHours*1.001 {
		t.Errorf("cause split %v != wasted %v", got, w.WastedCoreHours)
	}
	var famSum float64
	var famJobs int
	for _, row := range w.ByFamily {
		famSum += row.CoreHours
		famJobs += row.Jobs
	}
	if famSum < w.WastedCoreHours*0.999 || famSum > w.WastedCoreHours*1.001 {
		t.Errorf("family sum %v != wasted %v", famSum, w.WastedCoreHours)
	}
	if famJobs != cls.Failed {
		t.Errorf("family jobs %d != failed %d", famJobs, cls.Failed)
	}
	// Rows sorted by descending core-hours.
	for i := 1; i < len(w.ByFamily); i++ {
		if w.ByFamily[i].CoreHours > w.ByFamily[i-1].CoreHours {
			t.Fatal("waste rows not sorted")
		}
	}
	// Sanity: the corpus wastes a meaningful but bounded share.
	if w.WastedShare < 0.05 || w.WastedShare > 0.6 {
		t.Errorf("wasted share %v implausible", w.WastedShare)
	}
	_ = c
	if _, err := d.Waste(nil); err == nil {
		t.Error("nil classification accepted")
	}
}
