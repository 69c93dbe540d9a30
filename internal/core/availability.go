package core

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/stats"
)

// AvailabilityResult is the downtime profile derived from service-action
// begin/end pairs in the RAS log: how much hardware was out of service,
// the resulting machine availability, and the repair-time distribution.
type AvailabilityResult struct {
	ServiceActions    int     // matched begin/end pairs
	UnmatchedBegins   int     // actions still open at the end of the window
	DownMidplaneHours float64 // Σ per-midplane out-of-service hours
	SpanHours         float64
	// Availability = 1 − down-midplane-hours / (96 × span).
	Availability float64
	// RepairHours are the matched service-action durations, in match order.
	RepairHours   []float64
	MeanRepairH   float64
	MedianRepairH float64
	// RepairSummary are the descriptive statistics of the repair durations.
	RepairSummary stats.Summary
	// RepairSample is the sorted view of RepairHours with precomputed
	// sufficient statistics (nil when there are no repairs).
	RepairSample *dist.Sample
	// BestFit is the best-fitting law of the repair durations.
	BestFit dist.FitResult
}

// Availability pairs service-action begin/end events per hardware location
// and derives downtime, availability and the repair-time distribution. It
// reads the event view: message ids by dictionary code, locations by
// their view code.
func (d *Dataset) Availability() (*AvailabilityResult, error) {
	v := d.EventView()
	open := map[int32][]int{} // location code → view rows of open begins
	res := &AvailabilityResult{}
	_, end := d.Span()
	start, _ := d.Span()
	res.SpanHours = end.Sub(start).Hours()

	// kind[c] classifies message-id code c: 1 a begin, 2 an end.
	kind := make([]uint8, len(v.MsgIDs))
	for c, id := range v.MsgIDs {
		switch id {
		case raslog.MsgServiceBegin:
			kind[c] = 1
		case raslog.MsgServiceEnd:
			kind[c] = 2
		}
	}
	for i, c := range v.MsgID {
		switch kind[c] {
		case 1:
			loc := v.LocCode[i]
			open[loc] = append(open[loc], i)
		case 2:
			loc := v.LocCode[i]
			q := open[loc]
			if len(q) == 0 {
				continue // unmatched end (window-truncated log)
			}
			b := q[0]
			open[loc] = q[1:]
			dur := (time.Duration(v.TimeUnix[i]-v.TimeUnix[b]) * time.Second).Hours()
			if dur < 0 {
				continue
			}
			res.ServiceActions++
			res.RepairHours = append(res.RepairHours, dur)
			res.DownMidplaneHours += dur
		}
	}
	for _, q := range open {
		res.UnmatchedBegins += len(q)
	}
	if res.ServiceActions == 0 {
		return nil, fmt.Errorf("core: no service-action pairs in the RAS log")
	}
	if res.SpanHours > 0 {
		res.Availability = 1 - res.DownMidplaneHours/(float64(machine.TotalMidplanes)*res.SpanHours)
	}
	// One sort covers the summary statistics, the median, and — through the
	// Sample's sufficient statistics — the repair-time model selection.
	sorted := append([]float64(nil), res.RepairHours...)
	stats.SortFloat64s(sorted)
	summary, err := stats.SummarizeSorted(sorted)
	if err != nil {
		return nil, err
	}
	res.RepairSummary = summary
	res.MeanRepairH = summary.Mean
	res.MedianRepairH = summary.Median
	res.RepairSample = dist.NewSampleSorted(sorted)
	if len(res.RepairHours) >= 30 {
		best, err := dist.SelectBest(res.RepairSample, nil)
		if err != nil {
			return nil, fmt.Errorf("core: fit repair times: %w", err)
		}
		res.BestFit = best
	}
	return res, nil
}
