package scan

import "time"

// JobView is the struct-of-arrays form of the job log, in log order, and
// the only form a Dataset keeps resident: every field of a joblog.Job has
// a column here, and core.(*Dataset).JobRecords rebuilds the records from
// them for the tools that print or re-encode records. All column slices
// have length N. Views are built once — from the AoS records by
// core.NewDataset, or adopted from a mirapack file, their columns slices
// over the mapping (pack.ReadFile) — and treated
// as immutable thereafter.
type JobView struct {
	N int

	// ID is the job id (JobID in the log).
	ID []int64
	// SubmitUnix, StartUnix and EndUnix are Unix seconds, the full
	// timestamps: a corpus has whole-second times (core.NewDataset).
	SubmitUnix []int64
	StartUnix  []int64
	EndUnix    []int64
	// DurSec is EndUnix-StartUnix, the execution length in seconds
	// (joblog.Job.Runtime).
	DurSec []int64
	// Nodes is the allocated node count.
	Nodes []int32
	// CoreSec is Nodes × 16 cores × DurSec: exact integer core-seconds, the
	// order-insensitive form of joblog.Job.CoreHours (divide by 3600).
	CoreSec []int64
	// Exit is the raw exit status; 0 means success.
	Exit []int32
	// Family is the dense joblog family code (joblog.FamilyCode); 0 is
	// success, 1.. follow joblog.FailureFamilies order.
	Family []uint8
	// UserID, ProjectID and QueueID index the Users, Projects and Queues
	// dictionaries. Dictionaries are in first-appearance order over the
	// job slice, which matches the mirapack dictionary order by
	// construction.
	UserID    []int32
	ProjectID []int32
	QueueID   []int32
	Users     []string
	Projects  []string
	Queues    []string
	// WalltimeSec is the requested walltime in whole seconds
	// (joblog.Job.WalltimeReq).
	WalltimeSec []int64
	// RanksPerNode is the BG/Q mode and NumTasks the number of physical
	// execution tasks the scheduler log records for the job.
	RanksPerNode []int32
	NumTasks     []int32
}

// CoreHours returns row i's consumed core-hours, the float expression of
// joblog.Job.CoreHours (nodes × 16 cores × runtime in hours) over the
// columns, so it has the same bits.
func (v *JobView) CoreHours(i int) float64 {
	return float64(v.Nodes[i]) * 16 * (time.Duration(v.DurSec[i]) * time.Second).Hours()
}

// Bytes returns the bytes the view holds: its columns plus the
// dictionaries' string headers and text.
func (v *JobView) Bytes() int {
	if v == nil {
		return 0
	}
	b := 8*(len(v.ID)+len(v.SubmitUnix)+len(v.StartUnix)+len(v.EndUnix)+len(v.DurSec)+len(v.CoreSec)+len(v.WalltimeSec)) +
		len(v.Family) +
		4*(len(v.Nodes)+len(v.Exit)+len(v.UserID)+len(v.ProjectID)+len(v.QueueID)+len(v.RanksPerNode)+len(v.NumTasks))
	return b + dictBytes(v.Users, v.Projects, v.Queues)
}

// TaskView is the struct-of-arrays form of the task log, in log order,
// and the only form a Dataset keeps resident: every field of a
// tasklog.Task has a column here, and core.(*Dataset).TaskRecords
// rebuilds the records from them. All column slices have length N.
type TaskView struct {
	N int

	// ID is the task id and JobID the job the task belongs to; a task
	// whose JobID matches no job stays in the view.
	ID    []int64
	JobID []int64
	// Block is the task's block as machine.Block.Code (base midplane <<
	// 8 | midplanes).
	Block []uint16
	// StartUnix and EndUnix are Unix seconds, the full timestamps.
	StartUnix []int64
	EndUnix   []int64
	// Nodes is the task's node count and Exit its exit status.
	Nodes []int32
	Exit  []int32
}

// Bytes returns the bytes the view's columns hold.
func (v *TaskView) Bytes() int {
	if v == nil {
		return 0
	}
	return 8*(len(v.ID)+len(v.JobID)+len(v.StartUnix)+len(v.EndUnix)) +
		2*len(v.Block) + 4*(len(v.Nodes)+len(v.Exit))
}

// dictBytes returns the string headers and text of the dictionaries.
func dictBytes(dicts ...[]string) int {
	b := 0
	for _, dict := range dicts {
		for _, s := range dict {
			b += 16 + len(s)
		}
	}
	return b
}

// EventView is the struct-of-arrays form of the RAS event log, in time
// order, and the only form a Dataset keeps resident: every field of a
// raslog.Event has a column here, and core.(*Dataset).EventRecords
// rebuilds the records from them for the tools that print or re-encode
// records.
type EventView struct {
	N int

	// TimeUnix is the event time in Unix seconds, the full timestamp.
	TimeUnix []int64
	// Sev is the raw raslog.Severity value.
	Sev []uint8
	// CatID and CompID index the Cats and Comps dictionaries
	// (first-appearance order over the event slice).
	CatID  []int32
	CompID []int32
	Cats   []string
	Comps  []string
	// MidplaneID is the machine-wide linear midplane index (0..95) of the
	// event location's midplane ancestor, or -1 when the location is
	// coarser than a midplane. RackID is the rack index (0..47), or -1 for
	// system-level locations.
	MidplaneID []int32
	RackID     []int32

	// RecID is the record id and JobID the attributed job (0 if none).
	RecID []int64
	JobID []int64
	// MsgID and Msg index the MsgIDs (message id) and Messages (message
	// text) dictionaries, in first-appearance order like Cats and Comps.
	MsgID    []int32
	MsgIDs   []string
	Msg      []int32
	Messages []string
	// LocCode is the event location's machine.Location.Code, except that
	// the zero Location (which Code folds into the system's code) is 0,
	// a value no Code takes.
	LocCode []int32
	// Count is the hardware-coalesced repetition count.
	Count []int32
}

// Bytes returns the bytes the view holds: its columns plus the
// dictionaries' string headers and text.
func (v *EventView) Bytes() int {
	if v == nil {
		return 0
	}
	b := 8*(len(v.TimeUnix)+len(v.RecID)+len(v.JobID)) + len(v.Sev) +
		4*(len(v.CatID)+len(v.CompID)+len(v.MidplaneID)+len(v.RackID)+
			len(v.MsgID)+len(v.Msg)+len(v.LocCode)+len(v.Count))
	return b + dictBytes(v.Cats, v.Comps, v.MsgIDs, v.Messages)
}
