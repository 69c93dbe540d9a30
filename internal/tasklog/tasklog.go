// Package tasklog models the physical-execution log of Mira: every job
// consists of one or more tasks (runs), each executed on a specific
// hardware block (partition). The task log is the join key between the
// scheduler's view of a job and the hardware locations RAS events report.
package tasklog

import (
	"fmt"
	"io"
	"time"

	"repro/internal/fastcsv"
	"repro/internal/machine"
)

// Task is one physical execution (run) belonging to a job.
type Task struct {
	ID         int64
	JobID      int64
	Block      machine.Block // hardware partition the run executed on
	Start      time.Time
	End        time.Time
	Nodes      int // nodes used (≤ Block.Nodes())
	ExitStatus int // per-run exit status
}

// Validate performs sanity checks.
func (t *Task) Validate() error {
	switch {
	case t.ID <= 0:
		return fmt.Errorf("tasklog: task %d: non-positive id", t.ID)
	case t.JobID <= 0:
		return fmt.Errorf("tasklog: task %d: non-positive job id", t.ID)
	case t.End.Before(t.Start):
		return fmt.Errorf("tasklog: task %d: ends before start", t.ID)
	case t.Nodes <= 0 || t.Nodes > t.Block.Nodes():
		return fmt.Errorf("tasklog: task %d: %d nodes does not fit block %s", t.ID, t.Nodes, t.Block.Name())
	}
	return t.Block.Validate()
}

var header = []string{
	"task_id", "job_id", "block", "start_unix", "end_unix", "nodes", "exit_status",
}

// encoder caches block names: a task log references a small set of blocks
// across millions of rows, so Name() (an fmt.Sprintf) runs once per block.
type encoder struct {
	fw    *fastcsv.Writer
	names map[machine.Block]string
}

func newEncoder(w io.Writer) *encoder {
	fw := fastcsv.NewWriter(w)
	for _, h := range header {
		fw.String(h)
	}
	fw.EndRecord()
	return &encoder{fw: fw, names: make(map[machine.Block]string)}
}

func (enc *encoder) task(t *Task) {
	enc.fw.Int64(t.ID)
	enc.fw.Int64(t.JobID)
	name, ok := enc.names[t.Block]
	if !ok {
		name = t.Block.Name()
		enc.names[t.Block] = name
	}
	enc.fw.String(name)
	enc.fw.Int64(t.Start.Unix())
	enc.fw.Int64(t.End.Unix())
	enc.fw.Int(t.Nodes)
	enc.fw.Int(t.ExitStatus)
	enc.fw.EndRecord()
}

// WriteCSV writes tasks to w, header first.
func WriteCSV(w io.Writer, tasks []Task) error {
	enc := newEncoder(w)
	for i := range tasks {
		enc.task(&tasks[i])
	}
	if err := enc.fw.Flush(); err != nil {
		return fmt.Errorf("tasklog: write tasks: %w", err)
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

// decoder caches parsed blocks so ParseBlock (an fmt.Sscanf) runs once per
// distinct block name rather than once per row.
type decoder struct {
	blocks map[string]machine.Block
}

func newDecoder() *decoder { return &decoder{blocks: make(map[string]machine.Block)} }

func (d *decoder) block(b []byte) (machine.Block, error) {
	if blk, ok := d.blocks[string(b)]; ok { // alloc-free lookup
		return blk, nil
	}
	s := string(b)
	blk, err := machine.ParseBlock(s)
	if err != nil {
		return machine.Block{}, err
	}
	d.blocks[s] = blk
	return blk, nil
}

// ReadCSV reads a task log written by WriteCSV.
func ReadCSV(r io.Reader) ([]Task, error) {
	cr := fastcsv.NewReader(r)
	first, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("tasklog: read header: %w", err)
	}
	if !headerOK(first) {
		return nil, fmt.Errorf("tasklog: unexpected header %v", headerStrings(first))
	}
	dec := newDecoder()
	var tasks []Task
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("tasklog: line %d: %w", line, err)
		}
		t, err := dec.parseRow(rec)
		if err != nil {
			return nil, fmt.Errorf("tasklog: line %d: %w", line, err)
		}
		tasks = append(tasks, t)
	}
	return tasks, nil
}

func (d *decoder) parseRow(rec [][]byte) (Task, error) {
	if len(rec) != len(header) {
		return Task{}, fmt.Errorf("want %d fields, got %d", len(header), len(rec))
	}
	var t Task
	var err error
	if t.ID, err = fastcsv.Int64(rec[0]); err != nil {
		return Task{}, fmt.Errorf("task_id: %w", err)
	}
	if t.JobID, err = fastcsv.Int64(rec[1]); err != nil {
		return Task{}, fmt.Errorf("job_id: %w", err)
	}
	if t.Block, err = d.block(rec[2]); err != nil {
		return Task{}, err
	}
	start, err := fastcsv.Int64(rec[3])
	if err != nil {
		return Task{}, fmt.Errorf("start_unix: %w", err)
	}
	end, err := fastcsv.Int64(rec[4])
	if err != nil {
		return Task{}, fmt.Errorf("end_unix: %w", err)
	}
	t.Start = time.Unix(start, 0).UTC()
	t.End = time.Unix(end, 0).UTC()
	if t.Nodes, err = fastcsv.Int(rec[5]); err != nil {
		return Task{}, fmt.Errorf("nodes: %w", err)
	}
	if t.ExitStatus, err = fastcsv.Int(rec[6]); err != nil {
		return Task{}, fmt.Errorf("exit_status: %w", err)
	}
	return t, nil
}
