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

// EventView is the struct-of-arrays mirror of the hot RAS event columns,
// aligned with the owning dataset's Events slice.
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
}
