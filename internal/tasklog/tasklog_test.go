package tasklog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
)

func sampleTask() Task {
	base := time.Date(2015, 2, 3, 10, 0, 0, 0, time.UTC)
	return Task{
		ID: 7, JobID: 3, Block: machine.Block{BaseMidplane: 4, Midplanes: 4},
		Start: base, End: base.Add(time.Hour), Nodes: 2048, ExitStatus: 0,
	}
}

func TestTaskDerived(t *testing.T) {
	task := sampleTask()
	if err := task.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
}

func TestTaskValidateErrors(t *testing.T) {
	cases := []func(*Task){
		func(x *Task) { x.ID = 0 },
		func(x *Task) { x.JobID = -1 },
		func(x *Task) { x.End = x.Start.Add(-time.Second) },
		func(x *Task) { x.Nodes = 0 },
		func(x *Task) { x.Nodes = x.Block.Nodes() + 1 },
		func(x *Task) { x.Block = machine.Block{BaseMidplane: 1, Midplanes: 2} },
	}
	for i, mutate := range cases {
		task := sampleTask()
		mutate(&task)
		if err := task.Validate(); err == nil {
			t.Errorf("case %d: invalid task accepted", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	t1 := sampleTask()
	t2 := sampleTask()
	t2.ID = 8
	t2.ExitStatus = 139
	tasks := []Task{t1, t2}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tasks, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", tasks, back)
	}
}

func TestReadCSVErrors(t *testing.T) {
	h := "task_id,job_id,block,start_unix,end_unix,nodes,exit_status"
	cases := map[string]string{
		"empty":      "",
		"bad header": "x\n",
		"bad block":  h + "\n1,1,NOPE,1,2,512,0\n",
		"bad id":     h + "\nx,1,B00-01,1,2,512,0\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
