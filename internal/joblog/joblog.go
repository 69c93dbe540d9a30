// Package joblog models the Cobalt-style job-scheduling log of Mira: one
// record per job with submission/start/end times, user, project, queue,
// size, mode and exit status. It provides the exit-status taxonomy the
// paper's failure classification builds on, and CSV encode/decode for
// corpus files.
package joblog

import (
	"fmt"
	"io"
	"time"

	"repro/internal/fastcsv"
)

// Exit statuses follow the POSIX shell convention: 0 is success, 1–127 are
// program-chosen error codes, 128+n means "terminated by signal n". Cobalt
// records the scheduler-visible status of the job script.
const (
	ExitSuccess        = 0   // clean completion
	ExitGeneralError   = 1   // generic user-code error
	ExitMisuse         = 2   // wrong invocation / misconfiguration
	ExitIOError        = 5   // I/O failure reported by the application
	ExitResourceError  = 12  // out-of-memory style resource exhaustion
	ExitSigAbort       = 134 // 128+SIGABRT: assertion failure / abort()
	ExitSigKill        = 137 // 128+SIGKILL: killed (walltime limit)
	ExitSigSegv        = 139 // 128+SIGSEGV: segmentation fault
	ExitSigTerm        = 143 // 128+SIGTERM: terminated (user delete)
	ExitSystemReserved = 320 // scheduler-assigned: block failure (system)
)

// Outcome is the coarse job outcome derived from the exit status alone.
type Outcome int

// Outcome values.
const (
	OutcomeSuccess Outcome = iota + 1
	OutcomeFailure
)

// String returns "success" or "failure".
func (o Outcome) String() string {
	if o == OutcomeSuccess {
		return "success"
	}
	return "failure"
}

// Job is one record of the scheduling log.
type Job struct {
	ID           int64
	User         string
	Project      string
	Queue        string
	Submit       time.Time
	Start        time.Time
	End          time.Time
	WalltimeReq  time.Duration // requested walltime
	Nodes        int           // allocated compute nodes
	RanksPerNode int           // BG/Q mode (c1..c64); cores used per node
	NumTasks     int           // number of physical execution tasks (runs)
	ExitStatus   int
}

// Runtime returns the wall-clock execution length of the job.
func (j *Job) Runtime() time.Duration { return j.End.Sub(j.Start) }

// CoreSeconds returns the consumed core-seconds (nodes × 16 cores ×
// runtime) as an exact integer. Integer core-seconds are the canonical
// accumulator for corpus-wide consumption sums: integer addition is
// order-insensitive, so sharded scans merge to bit-identical totals.
func (j *Job) CoreSeconds() int64 {
	return int64(j.Nodes) * 16 * int64(j.Runtime()/time.Second)
}

// CoreHours returns the consumed core-hours (nodes × 16 cores × runtime).
// Not defined as CoreSeconds()/3600: the float expression below rounds
// differently in the last bit for some jobs, and the simulator feeds it
// into draws, so redefining it would change generated corpora.
func (j *Job) CoreHours() float64 {
	return float64(j.Nodes) * 16 * j.Runtime().Hours()
}

// Outcome classifies the job by exit status.
func (j *Job) Outcome() Outcome {
	if j.ExitStatus == ExitSuccess {
		return OutcomeSuccess
	}
	return OutcomeFailure
}

// ExitFamily groups exit statuses into the families the paper fits
// distributions per (Table of best-fit laws per exit code).
type ExitFamily string

// Exit families.
const (
	FamilySuccess  ExitFamily = "success"
	FamilyError    ExitFamily = "error"    // exit 1: generic runtime error
	FamilyConfig   ExitFamily = "config"   // exit 2/5/12: misuse & resources
	FamilyAbort    ExitFamily = "abort"    // SIGABRT
	FamilyKilled   ExitFamily = "killed"   // SIGKILL (walltime)
	FamilySegfault ExitFamily = "segfault" // SIGSEGV
	FamilyTerm     ExitFamily = "term"     // SIGTERM (user delete)
	FamilySystem   ExitFamily = "system"   // scheduler block failure
	FamilyOther    ExitFamily = "other"
)

// Family maps an exit status to its family.
func Family(exitStatus int) ExitFamily {
	switch exitStatus {
	case ExitSuccess:
		return FamilySuccess
	case ExitGeneralError:
		return FamilyError
	case ExitMisuse, ExitIOError, ExitResourceError:
		return FamilyConfig
	case ExitSigAbort:
		return FamilyAbort
	case ExitSigKill:
		return FamilyKilled
	case ExitSigSegv:
		return FamilySegfault
	case ExitSigTerm:
		return FamilyTerm
	case ExitSystemReserved:
		return FamilySystem
	default:
		return FamilyOther
	}
}

// FailureFamilies lists the non-success families in report order.
func FailureFamilies() []ExitFamily {
	return []ExitFamily{
		FamilyError, FamilyConfig, FamilyAbort, FamilyKilled,
		FamilySegfault, FamilyTerm, FamilySystem, FamilyOther,
	}
}

// NumFamilies is the number of distinct exit families: success plus the
// eight failure families.
const NumFamilies = 9

// familyCodes assigns each family its dense code: 0 is success, 1..8 follow
// FailureFamilies order. codeFamilies is the inverse table.
var (
	familyCodes = map[ExitFamily]uint8{
		FamilySuccess: 0, FamilyError: 1, FamilyConfig: 2, FamilyAbort: 3,
		FamilyKilled: 4, FamilySegfault: 5, FamilyTerm: 6, FamilySystem: 7,
		FamilyOther: 8,
	}
	codeFamilies = [NumFamilies]ExitFamily{
		FamilySuccess, FamilyError, FamilyConfig, FamilyAbort, FamilyKilled,
		FamilySegfault, FamilyTerm, FamilySystem, FamilyOther,
	}
)

// FamilyCode returns the dense code of f (see NumFamilies). Unknown family
// strings map to the FamilyOther code.
func FamilyCode(f ExitFamily) uint8 {
	c, ok := familyCodes[f]
	if !ok {
		return familyCodes[FamilyOther]
	}
	return c
}

// FamilyCodeOf returns the dense family code of an exit status:
// FamilyCode(Family(exitStatus)).
func FamilyCodeOf(exitStatus int) uint8 {
	return FamilyCode(Family(exitStatus))
}

// FamilyOfCode returns the family for a dense code; out-of-range codes map
// to FamilyOther.
func FamilyOfCode(c uint8) ExitFamily {
	if int(c) >= NumFamilies {
		return FamilyOther
	}
	return codeFamilies[c]
}

// header is the CSV schema for job logs.
var header = []string{
	"job_id", "user", "project", "queue", "submit_unix", "start_unix",
	"end_unix", "walltime_req_s", "nodes", "ranks_per_node", "num_tasks",
	"exit_status",
}

// writeJob encodes one job row.
func writeJob(fw *fastcsv.Writer, j *Job) {
	fw.Int64(j.ID)
	fw.String(j.User)
	fw.String(j.Project)
	fw.String(j.Queue)
	fw.Int64(j.Submit.Unix())
	fw.Int64(j.Start.Unix())
	fw.Int64(j.End.Unix())
	fw.Int64(int64(j.WalltimeReq / time.Second))
	fw.Int(j.Nodes)
	fw.Int(j.RanksPerNode)
	fw.Int(j.NumTasks)
	fw.Int(j.ExitStatus)
	fw.EndRecord()
}

// WriteCSV writes jobs to w in the package schema, header first.
func WriteCSV(w io.Writer, jobs []Job) error {
	fw := fastcsv.NewWriter(w)
	for _, h := range header {
		fw.String(h)
	}
	fw.EndRecord()
	for i := range jobs {
		writeJob(fw, &jobs[i])
	}
	if err := fw.Flush(); err != nil {
		return fmt.Errorf("joblog: write jobs: %w", err)
	}
	return nil
}

// headerOK checks field count plus leading column name, the same test the
// encoding/csv codec applied.
func headerOK(first [][]byte) bool {
	return len(first) == len(header) && string(first[0]) == header[0]
}

func headerStrings(rec [][]byte) []string {
	out := make([]string, len(rec))
	for i, f := range rec {
		out[i] = string(f)
	}
	return out
}

// decoder interns the user/project/queue vocabulary, which repeats across
// nearly every row of a multi-year scheduler log.
type decoder struct {
	intern *fastcsv.Interner
}

func newDecoder() *decoder { return &decoder{intern: fastcsv.NewInterner()} }

// ReadCSV reads a job log written by WriteCSV.
func ReadCSV(r io.Reader) ([]Job, error) {
	cr := fastcsv.NewReader(r)
	first, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("joblog: read header: %w", err)
	}
	if !headerOK(first) {
		return nil, fmt.Errorf("joblog: unexpected header %v", headerStrings(first))
	}
	dec := newDecoder()
	var jobs []Job
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("joblog: line %d: %w", line, err)
		}
		j, err := dec.parseRow(rec)
		if err != nil {
			return nil, fmt.Errorf("joblog: line %d: %w", line, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func (d *decoder) parseRow(rec [][]byte) (Job, error) {
	if len(rec) != len(header) {
		return Job{}, fmt.Errorf("want %d fields, got %d", len(header), len(rec))
	}
	var j Job
	var err error
	if j.ID, err = fastcsv.Int64(rec[0]); err != nil {
		return Job{}, fmt.Errorf("job_id: %w", err)
	}
	j.User = d.intern.Intern(rec[1])
	j.Project = d.intern.Intern(rec[2])
	j.Queue = d.intern.Intern(rec[3])
	var ints [4]int64
	for n, idx := range [...]int{4, 5, 6, 7} {
		v, err := fastcsv.Int64(rec[idx])
		if err != nil {
			return Job{}, fmt.Errorf("%s: %w", header[idx], err)
		}
		ints[n] = v
	}
	j.Submit = time.Unix(ints[0], 0).UTC()
	j.Start = time.Unix(ints[1], 0).UTC()
	j.End = time.Unix(ints[2], 0).UTC()
	j.WalltimeReq = time.Duration(ints[3]) * time.Second
	for _, f := range [...]struct {
		idx int
		dst *int
	}{{8, &j.Nodes}, {9, &j.RanksPerNode}, {10, &j.NumTasks}, {11, &j.ExitStatus}} {
		v, err := fastcsv.Int(rec[f.idx])
		if err != nil {
			return Job{}, fmt.Errorf("%s: %w", header[f.idx], err)
		}
		*f.dst = v
	}
	return j, nil
}

// Validate performs sanity checks used by tests and the generator.
func (j *Job) Validate() error {
	switch {
	case j.ID <= 0:
		return fmt.Errorf("joblog: job %d: non-positive id", j.ID)
	case j.User == "" || j.Project == "":
		return fmt.Errorf("joblog: job %d: missing user/project", j.ID)
	case j.Start.Before(j.Submit):
		return fmt.Errorf("joblog: job %d: starts before submit", j.ID)
	case j.End.Before(j.Start):
		return fmt.Errorf("joblog: job %d: ends before start", j.ID)
	case j.Nodes <= 0:
		return fmt.Errorf("joblog: job %d: non-positive nodes", j.ID)
	case j.RanksPerNode <= 0:
		return fmt.Errorf("joblog: job %d: non-positive ranks per node", j.ID)
	case j.NumTasks <= 0:
		return fmt.Errorf("joblog: job %d: non-positive tasks", j.ID)
	}
	return nil
}
