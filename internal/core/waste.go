package core

import "repro/internal/joblog"

// WasteRow is the compute lost to one exit family.
type WasteRow struct {
	Family    joblog.ExitFamily
	Jobs      int
	CoreHours float64 // core-hours consumed by jobs that ended in this family
	Share     float64 // fraction of all *wasted* core-hours
}

// WasteResult quantifies the compute cost of failures: how many core-hours
// were consumed by jobs that produced no result, split by exit family and
// by root cause.
type WasteResult struct {
	TotalCoreHours  float64 // all jobs
	WastedCoreHours float64 // failed jobs only
	WastedShare     float64 // wasted / total
	UserCoreHours   float64 // wasted by user-caused failures
	SystemCoreHours float64 // wasted by system-caused failures
	ByFamily        []WasteRow
}
