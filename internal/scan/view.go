package scan

// JobView is the struct-of-arrays mirror of the hot job columns. All column
// slices have length N and are aligned with the owning dataset's Jobs slice
// (row i describes Jobs[i]). Views are built once — lazily from the AoS
// records, or straight from mirapack column decode — and treated as
// immutable thereafter.
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
	// UserID and ProjectID index the Users and Projects dictionaries.
	// Dictionaries are in first-appearance order over the job slice, which
	// matches the mirapack dictionary order by construction.
	UserID    []int32
	ProjectID []int32
	Users     []string
	Projects  []string
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
	for _, dict := range [...][]string{v.Cats, v.Comps, v.MsgIDs, v.Messages} {
		for _, s := range dict {
			b += 16 + len(s)
		}
	}
	return b
}
