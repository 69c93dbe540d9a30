package tasklog

// Columns is the column-major decomposition of a task log, the shape the
// binary corpus snapshot (internal/pack) stores. Blocks are packed machine
// codes (machine.Block.Code), times are unix seconds.
type Columns struct {
	ID    []int64
	JobID []int64
	Block []int64 // machine.Block codes
	Start []int64 // unix seconds
	End   []int64 // unix seconds
	Nodes []int64
	Exit  []int64
}

// Rows returns the number of tasks the columns hold.
func (c *Columns) Rows() int { return len(c.ID) }

// ToColumns decomposes tasks column-major.
func ToColumns(tasks []Task) *Columns {
	n := len(tasks)
	c := &Columns{
		ID:    make([]int64, n),
		JobID: make([]int64, n),
		Block: make([]int64, n),
		Start: make([]int64, n),
		End:   make([]int64, n),
		Nodes: make([]int64, n),
		Exit:  make([]int64, n),
	}
	for i := range tasks {
		t := &tasks[i]
		c.ID[i] = t.ID
		c.JobID[i] = t.JobID
		c.Block[i] = int64(t.Block.Code())
		c.Start[i] = t.Start.Unix()
		c.End[i] = t.End.Unix()
		c.Nodes[i] = int64(t.Nodes)
		c.Exit[i] = int64(t.ExitStatus)
	}
	return c
}
