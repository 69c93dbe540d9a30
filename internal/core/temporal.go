package core

// TemporalProfile holds the hour-of-day / day-of-week / monthly activity
// patterns of jobs and FATAL events (experiment E14).
type TemporalProfile struct {
	// JobsByHour / FailsByHour index 0..23 by submission hour (UTC).
	JobsByHour  [24]int
	FailsByHour [24]int
	// JobsByWeekday / FailsByWeekday index time.Weekday (Sunday=0).
	JobsByWeekday  [7]int
	FailsByWeekday [7]int
	// FatalByHour counts FATAL RAS events per hour of day.
	FatalByHour [24]int
	// Monthly series: year-month keys in chronological order.
	Months       []string
	JobsByMonth  []int
	FailsByMonth []int
	FatalByMonth []int
	// JobsByDay is the daily submission series (index 0 = first day).
	JobsByDay []int
}

// FailRateByHour returns the per-hour job failure rate.
func (p *TemporalProfile) FailRateByHour() [24]float64 {
	var out [24]float64
	for h := 0; h < 24; h++ {
		if p.JobsByHour[h] > 0 {
			out[h] = float64(p.FailsByHour[h]) / float64(p.JobsByHour[h])
		}
	}
	return out
}
