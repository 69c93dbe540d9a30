package core

import (
	"testing"

	"repro/internal/scan"
)

// Benchmark_WholeTableScan times one whole-table pass of the kernel set
// the fused scan registers, per side: scan.Run at one worker over every
// row of the 90-day corpus. It builds the kernels itself rather than
// calling FusedScan, whose per-Dataset memo would turn every iteration
// after the first into a lookup.
func Benchmark_WholeTableScan(b *testing.B) {
	d := benchDataset(b)
	jv, ev := d.JobView(), d.EventView()
	tk := newTemporalJobKernel(d)
	b.Run("jobs", func(b *testing.B) {
		kernels := fusedJobKernels(jv, tk)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := scan.Run(jv, jv.N, nil, kernels, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("events", func(b *testing.B) {
		kernels := fusedEventKernels(ev, tk.monthCap)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := scan.Run(ev, ev.N, nil, kernels, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
