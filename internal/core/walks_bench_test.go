package core

import (
	"testing"

	"repro/internal/machine"
)

// profileWalks computes every FusedProfile field through its reference
// walk, one corpus pass per analysis, with the arguments the experiments
// used before fusion (each classification-based walk classifies anew).
var profileWalks = []func(d *Dataset) (any, error){
	func(d *Dataset) (any, error) { return d.Summarize(), nil },
	func(d *Dataset) (any, error) { return TallyOf(d.ClassifyByExit()), nil },
	func(d *Dataset) (any, error) { return TallyOf(d.ClassifyJoint(DefaultJointOptions())), nil },
	func(d *Dataset) (any, error) { return d.Aggregate(ByUser, d.ClassifyByExit()), nil },
	func(d *Dataset) (any, error) { return d.Aggregate(ByProject, d.ClassifyByExit()), nil },
	func(d *Dataset) (any, error) { return d.Concentration(ByUser, d.ClassifyByExit()) },
	func(d *Dataset) (any, error) { return d.Concentration(ByProject, d.ClassifyByExit()) },
	func(d *Dataset) (any, error) { return d.Temporal(), nil },
	func(d *Dataset) (any, error) { return d.Profile(), nil },
	func(d *Dataset) (any, error) { return d.Waste(d.ClassifyByExit()) },
	func(d *Dataset) (any, error) { return d.InterruptsByUser(d.ClassifyByExit()) },
	func(d *Dataset) (any, error) { return d.Locality(machine.LevelMidplane) },
	func(d *Dataset) (any, error) { return d.Locality(machine.LevelRack) },
}

// BenchmarkProfile measures what fusion buys for the whole-corpus profile:
// one iteration derives every FusedProfile field on a freshly indexed
// 90-day Dataset, either through the reference walks or through one
// FusedScan at one worker plus both concentration profiles. Indexing the
// Dataset is outside the timer; the column views and scan state the fused
// side builds lazily are inside it.
func BenchmarkProfile(b *testing.B) {
	shared := benchDataset(b)
	jobs, tasks, events := shared.JobRecords(), shared.TaskRecords(), shared.EventRecords()
	fresh := func() *Dataset {
		d, err := NewDataset(jobs, tasks, events, shared.IO)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := fresh()
			b.StartTimer()
			for _, walk := range profileWalks {
				if _, err := walk(d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			d := fresh()
			b.StartTimer()
			p, err := d.FusedScan(1)
			if err != nil {
				b.Fatal(err)
			}
			for _, by := range []GroupBy{ByUser, ByProject} {
				if _, err := p.Concentration(by); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkClassification measures both reference classifications.
func BenchmarkClassification(b *testing.B) {
	d := benchDataset(b)
	b.Run("by-exit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cls := d.ClassifyByExit()
			if cls.Failed == 0 {
				b.Fatal("no failures")
			}
		}
	})
	b.Run("joint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cls := d.ClassifyJoint(DefaultJointOptions())
			if cls.Failed == 0 {
				b.Fatal("no failures")
			}
		}
	})
}
