package joblog

import "time"

// Columns is the column-major decomposition of a job log, the shape the
// binary corpus snapshot (internal/pack) stores. Times are unix seconds and
// the requested walltime is whole seconds, matching the CSV schema, so a
// job survives CSV → columns → CSV byte-identically.
type Columns struct {
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

// Rows returns the number of jobs the columns hold.
func (c *Columns) Rows() int { return len(c.ID) }

// ToColumns decomposes jobs column-major.
func ToColumns(jobs []Job) *Columns {
	n := len(jobs)
	c := &Columns{
		ID:       make([]int64, n),
		User:     make([]string, n),
		Project:  make([]string, n),
		Queue:    make([]string, n),
		Submit:   make([]int64, n),
		Start:    make([]int64, n),
		End:      make([]int64, n),
		Walltime: make([]int64, n),
		Nodes:    make([]int64, n),
		Ranks:    make([]int64, n),
		NumTasks: make([]int64, n),
		Exit:     make([]int64, n),
	}
	for i := range jobs {
		j := &jobs[i]
		c.ID[i] = j.ID
		c.User[i] = j.User
		c.Project[i] = j.Project
		c.Queue[i] = j.Queue
		c.Submit[i] = j.Submit.Unix()
		c.Start[i] = j.Start.Unix()
		c.End[i] = j.End.Unix()
		c.Walltime[i] = int64(j.WalltimeReq / time.Second)
		c.Nodes[i] = int64(j.Nodes)
		c.Ranks[i] = int64(j.RanksPerNode)
		c.NumTasks[i] = int64(j.NumTasks)
		c.Exit[i] = int64(j.ExitStatus)
	}
	return c
}
