package raslog

// Columns is the column-major decomposition of a RAS log, the shape the
// binary corpus snapshot (internal/pack) stores. Locations are packed
// machine codes (machine.Location.Code), times are unix seconds and
// severities their numeric values.
type Columns struct {
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

// Rows returns the number of events the columns hold.
func (c *Columns) Rows() int { return len(c.RecID) }

// ToColumns decomposes events column-major.
func ToColumns(events []Event) *Columns {
	n := len(events)
	c := &Columns{
		RecID:   make([]int64, n),
		MsgID:   make([]string, n),
		Comp:    make([]string, n),
		Cat:     make([]string, n),
		Sev:     make([]int64, n),
		Time:    make([]int64, n),
		Loc:     make([]int64, n),
		JobID:   make([]int64, n),
		Count:   make([]int64, n),
		Message: make([]string, n),
	}
	for i := range events {
		e := &events[i]
		c.RecID[i] = e.RecID
		c.MsgID[i] = e.MsgID
		c.Comp[i] = string(e.Comp)
		c.Cat[i] = string(e.Cat)
		c.Sev[i] = int64(e.Sev)
		c.Time[i] = e.Time.Unix()
		c.Loc[i] = int64(e.Loc.Code())
		c.JobID[i] = e.JobID
		c.Count[i] = int64(e.Count)
		c.Message[i] = e.Message
	}
	return c
}
