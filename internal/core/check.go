package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// The row checks of NewDatasetFromViews: the one definition of what a
// job, task and event log may hold. Every Dataset passes them, whether
// its views were built from records (NewDataset) or adopted from a
// mirapack file, so whatever one path accepts the other reads back.

// ViewError is a column-view value that fails NewDatasetFromViews'
// checks. Row is the view row the check failed on, or -1 for a check of
// the view as a whole (no rows, a duplicate job id); ID is that row's
// job, task or event record id.
type ViewError struct {
	Log string // "jobs", "tasks" or "events"
	Row int
	ID  int64
	Err error
}

// Error names the record and the view row, as in "core: event 17
// (events row 4): event count -1 out of range [0, 2^31)".
func (e *ViewError) Error() string {
	if e.Row < 0 {
		return "core: " + e.Err.Error()
	}
	return fmt.Sprintf("core: %s %d (%s row %d): %v", strings.TrimSuffix(e.Log, "s"), e.ID, e.Log, e.Row, e.Err)
}

func (e *ViewError) Unwrap() error { return e.Err }

// viewErr reports a check of the whole view that fails.
func viewErr(log, msg string) error { return &ViewError{Log: log, Row: -1, Err: errors.New(msg)} }

// rowErr reports a row of a view that fails its check.
func rowErr(log string, row int, id int64, format string, args ...any) error {
	return &ViewError{Log: log, Row: row, ID: id, Err: fmt.Errorf(format, args...)}
}

// codeErr reports a dictionary code outside its table.
func codeErr(log, column string, row int, id int64, code int32, n int) error {
	return rowErr(log, row, id, "%s code %d out of range [0,%d)", column, code, n)
}

// CountInRange reports whether v lies in [0, 2^31), the range of the
// count-like columns: a job's requested walltime in seconds, its node,
// ranks-per-node and task counts, a task's node count and an event's
// count. NewDatasetFromViews checks each with it.
func CountInRange(v int64) bool { return uint64(v) < 1<<31 }

// checkJobs checks every row of a job view in one pass: dictionary codes,
// the count-like columns, and the duration, core-second and family
// columns against their derivation.
func checkJobs(v *scan.JobView) error {
	users, projects, queues := uint32(len(v.Users)), uint32(len(v.Projects)), uint32(len(v.Queues))
	lastExit, lastFamily := int32(0), joblog.FamilyCodeOf(0)
	for i := 0; i < v.N; i++ {
		switch {
		case uint32(v.UserID[i]) >= users:
			return codeErr("jobs", "user", i, v.ID[i], v.UserID[i], len(v.Users))
		case uint32(v.ProjectID[i]) >= projects:
			return codeErr("jobs", "project", i, v.ID[i], v.ProjectID[i], len(v.Projects))
		case uint32(v.QueueID[i]) >= queues:
			return codeErr("jobs", "queue", i, v.ID[i], v.QueueID[i], len(v.Queues))
		case !CountInRange(v.WalltimeSec[i]):
			return rowErr("jobs", i, v.ID[i], "walltime %d out of range [0, 2^31)", v.WalltimeSec[i])
		case !CountInRange(int64(v.Nodes[i])):
			return rowErr("jobs", i, v.ID[i], "node count %d out of range [0, 2^31)", v.Nodes[i])
		case !CountInRange(int64(v.RanksPerNode[i])):
			return rowErr("jobs", i, v.ID[i], "ranks-per-node %d out of range [0, 2^31)", v.RanksPerNode[i])
		case !CountInRange(int64(v.NumTasks[i])):
			return rowErr("jobs", i, v.ID[i], "task count %d out of range [0, 2^31)", v.NumTasks[i])
		}
		dur := v.EndUnix[i] - v.StartUnix[i]
		if v.DurSec[i] != dur || v.CoreSec[i] != int64(v.Nodes[i])*16*dur {
			return rowErr("jobs", i, v.ID[i], "duration %d and core seconds %d do not match the times and node count", v.DurSec[i], v.CoreSec[i])
		}
		if e := v.Exit[i]; e != lastExit {
			lastExit, lastFamily = e, joblog.FamilyCodeOf(int(e))
		}
		if v.Family[i] != lastFamily {
			return rowErr("jobs", i, v.ID[i], "family %d does not match exit status %d", v.Family[i], v.Exit[i])
		}
	}
	return nil
}

// checkTasks checks every row of a task view: block codes that
// machine.BlockFromCode accepts, and node counts in CountInRange.
func checkTasks(v *scan.TaskView) error {
	// Block codes repeat heavily (a few hundred distinct blocks), so each
	// run of one code is checked once.
	lastBlock := -1
	for i := 0; i < v.N; i++ {
		if code := int(v.Block[i]); code != lastBlock {
			if _, err := machine.BlockFromCode(uint32(code)); err != nil {
				return &ViewError{Log: "tasks", Row: i, ID: v.ID[i], Err: err}
			}
			lastBlock = code
		}
		if !CountInRange(int64(v.Nodes[i])) {
			return rowErr("tasks", i, v.ID[i], "node count %d out of range [0, 2^31)", v.Nodes[i])
		}
	}
	return nil
}

// checkEvents checks every row of the dataset's event view in one pass
// that also checks the time order and splits the events by severity:
// dictionary codes, counts in CountInRange, location codes that
// machine.LocationFromCode accepts with the midplane and rack ids LocIDs
// gives them, and severities in Info..Fatal.
func (d *Dataset) checkEvents() error {
	v := d.eventView
	var fatal, warn []int
	infoN := 0
	msgIDs, comps, cats, msgs := uint32(len(v.MsgIDs)), uint32(len(v.Comps)), uint32(len(v.Cats)), uint32(len(v.Messages))
	// Location codes are high-cardinality (events land on any of 49k
	// nodes) and neighbouring events seldom share one, so a code is
	// decoded about once: locs caches, direct-mapped by its low bits (up
	// to 16: a node code's rack, midplane, board and node), the last code
	// decoded there and its midplane and rack ids. An entry holds its code
	// plus one, so the zero entry matches no code.
	type locIDs struct {
		code1     uint32
		mid, rack int8
	}
	locs := make([]locIDs, 1<<min(16, bits.Len(uint(v.N))))
	mask := uint32(len(locs) - 1)
	for i := 0; i < v.N; i++ {
		switch {
		case uint32(v.MsgID[i]) >= msgIDs:
			return codeErr("events", "message id", i, v.RecID[i], v.MsgID[i], len(v.MsgIDs))
		case uint32(v.CompID[i]) >= comps:
			return codeErr("events", "component", i, v.RecID[i], v.CompID[i], len(v.Comps))
		case uint32(v.CatID[i]) >= cats:
			return codeErr("events", "category", i, v.RecID[i], v.CatID[i], len(v.Cats))
		case uint32(v.Msg[i]) >= msgs:
			return codeErr("events", "message", i, v.RecID[i], v.Msg[i], len(v.Messages))
		case !CountInRange(int64(v.Count[i])):
			return rowErr("events", i, v.RecID[i], "event count %d out of range [0, 2^31)", v.Count[i])
		case i > 0 && v.TimeUnix[i] < v.TimeUnix[i-1]:
			return rowErr("events", i, v.RecID[i], "event %d at unix %d precedes the event before it (unix %d): events are not in time order", v.RecID[i], v.TimeUnix[i], v.TimeUnix[i-1])
		}
		code := v.LocCode[i]
		if uint32(code) >= 1<<19 {
			return rowErr("events", i, v.RecID[i], "location code %d out of range [0,%d)", code, 1<<19)
		}
		e := &locs[uint32(code)&mask]
		if e.code1 != uint32(code)+1 {
			l, err := machine.LocationFromCode(uint32(code))
			if err != nil {
				return &ViewError{Log: "events", Row: i, ID: v.RecID[i], Err: err}
			}
			mid, rack := LocIDs(l)
			*e = locIDs{uint32(code) + 1, int8(mid), int8(rack)}
		}
		if v.MidplaneID[i] != int32(e.mid) || v.RackID[i] != int32(e.rack) {
			return rowErr("events", i, v.RecID[i], "midplane %d and rack %d do not match location code %d", v.MidplaneID[i], v.RackID[i], code)
		}
		switch raslog.Severity(v.Sev[i]) {
		case raslog.Fatal:
			fatal = append(fatal, i)
		case raslog.Warn:
			warn = append(warn, i)
		case raslog.Info:
			infoN++
		default:
			return rowErr("events", i, v.RecID[i], "severity %d out of range", v.Sev[i])
		}
	}
	d.fatalIdx, d.warnIdx, d.infoN = fatal, warn, infoN
	return nil
}
