package pack

import (
	"time"

	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/raslog"
	"repro/internal/tasklog"
)

// The column-major decompositions of the four logs the version 3 encoder
// writes from: every field widened to int64, strings kept per row for the
// dictionary encoder. Version 4 stores the view columns instead, so these
// serve only the version 3 oracle.

type jobColsV3 struct {
	ID       []int64
	User     []string
	Project  []string
	Queue    []string
	Submit   []int64 // unix seconds
	Start    []int64 // unix seconds
	End      []int64 // unix seconds
	Walltime []int64 // requested walltime, seconds
	Nodes    []int64
	Ranks    []int64
	NumTasks []int64
	Exit     []int64
}

func (c *jobColsV3) Rows() int { return len(c.ID) }

func jobColumnsV3(jobs []joblog.Job) *jobColsV3 {
	c := &jobColsV3{}
	for i := range jobs {
		j := &jobs[i]
		c.ID = append(c.ID, j.ID)
		c.User = append(c.User, j.User)
		c.Project = append(c.Project, j.Project)
		c.Queue = append(c.Queue, j.Queue)
		c.Submit = append(c.Submit, j.Submit.Unix())
		c.Start = append(c.Start, j.Start.Unix())
		c.End = append(c.End, j.End.Unix())
		c.Walltime = append(c.Walltime, int64(j.WalltimeReq/time.Second))
		c.Nodes = append(c.Nodes, int64(j.Nodes))
		c.Ranks = append(c.Ranks, int64(j.RanksPerNode))
		c.NumTasks = append(c.NumTasks, int64(j.NumTasks))
		c.Exit = append(c.Exit, int64(j.ExitStatus))
	}
	return c
}

type taskColsV3 struct {
	ID    []int64
	JobID []int64
	Block []int64 // machine.Block codes
	Start []int64 // unix seconds
	End   []int64 // unix seconds
	Nodes []int64
	Exit  []int64
}

func (c *taskColsV3) Rows() int { return len(c.ID) }

func taskColumnsV3(tasks []tasklog.Task) *taskColsV3 {
	c := &taskColsV3{}
	for i := range tasks {
		t := &tasks[i]
		c.ID = append(c.ID, t.ID)
		c.JobID = append(c.JobID, t.JobID)
		c.Block = append(c.Block, int64(t.Block.Code()))
		c.Start = append(c.Start, t.Start.Unix())
		c.End = append(c.End, t.End.Unix())
		c.Nodes = append(c.Nodes, int64(t.Nodes))
		c.Exit = append(c.Exit, int64(t.ExitStatus))
	}
	return c
}

type eventColsV3 struct {
	RecID   []int64
	MsgID   []string
	Comp    []string
	Cat     []string
	Sev     []int64
	Time    []int64 // unix seconds
	Loc     []int64 // machine.Location codes
	JobID   []int64
	Count   []int64
	Message []string
}

func (c *eventColsV3) Rows() int { return len(c.RecID) }

func eventColumnsV3(events []raslog.Event) *eventColsV3 {
	c := &eventColsV3{}
	for i := range events {
		e := &events[i]
		c.RecID = append(c.RecID, e.RecID)
		c.MsgID = append(c.MsgID, e.MsgID)
		c.Comp = append(c.Comp, string(e.Comp))
		c.Cat = append(c.Cat, string(e.Cat))
		c.Sev = append(c.Sev, int64(e.Sev))
		c.Time = append(c.Time, e.Time.Unix())
		c.Loc = append(c.Loc, int64(e.Loc.Code()))
		c.JobID = append(c.JobID, e.JobID)
		c.Count = append(c.Count, int64(e.Count))
		c.Message = append(c.Message, e.Message)
	}
	return c
}

type ioColsV3 struct {
	JobID        []int64
	BytesRead    []int64
	BytesWritten []int64
	FilesRead    []int64
	FilesWritten []int64
	MetaOps      []int64
	IOTimeNanos  []int64
}

func (c *ioColsV3) Rows() int { return len(c.JobID) }

func ioColumnsV3(records []iolog.Record) *ioColsV3 {
	c := &ioColsV3{}
	for i := range records {
		r := &records[i]
		c.JobID = append(c.JobID, r.JobID)
		c.BytesRead = append(c.BytesRead, r.BytesRead)
		c.BytesWritten = append(c.BytesWritten, r.BytesWritten)
		c.FilesRead = append(c.FilesRead, int64(r.FilesRead))
		c.FilesWritten = append(c.FilesWritten, int64(r.FilesWritten))
		c.MetaOps = append(c.MetaOps, r.MetaOps)
		c.IOTimeNanos = append(c.IOTimeNanos, int64(iolog.CSVGranular(r.IOTime)))
	}
	return c
}
