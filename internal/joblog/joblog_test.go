package joblog

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleJob() Job {
	base := time.Date(2013, 4, 9, 12, 0, 0, 0, time.UTC)
	return Job{
		ID: 12345, User: "u0042", Project: "climate", Queue: "prod",
		Submit: base, Start: base.Add(30 * time.Minute),
		End: base.Add(2*time.Hour + 30*time.Minute), WalltimeReq: 4 * time.Hour,
		Nodes: 2048, RanksPerNode: 16, NumTasks: 3, ExitStatus: ExitSigSegv,
	}
}

func TestJobDerived(t *testing.T) {
	j := sampleJob()
	if got := j.Runtime(); got != 2*time.Hour {
		t.Errorf("Runtime = %v", got)
	}
	if got := j.CoreHours(); got != 2048*16*2 {
		t.Errorf("CoreHours = %v", got)
	}
	if j.Outcome() != OutcomeFailure {
		t.Error("segfault should be a failure")
	}
	j.ExitStatus = ExitSuccess
	if j.Outcome() != OutcomeSuccess {
		t.Error("exit 0 should be success")
	}
	if OutcomeSuccess.String() != "success" || OutcomeFailure.String() != "failure" {
		t.Error("outcome strings wrong")
	}
}

func TestFamily(t *testing.T) {
	tests := []struct {
		status int
		want   ExitFamily
	}{
		{0, FamilySuccess},
		{1, FamilyError},
		{2, FamilyConfig},
		{5, FamilyConfig},
		{12, FamilyConfig},
		{134, FamilyAbort},
		{137, FamilyKilled},
		{139, FamilySegfault},
		{143, FamilyTerm},
		{320, FamilySystem},
		{77, FamilyOther},
	}
	for _, tt := range tests {
		if got := Family(tt.status); got != tt.want {
			t.Errorf("Family(%d) = %s, want %s", tt.status, got, tt.want)
		}
	}
	if len(FailureFamilies()) != 8 {
		t.Errorf("FailureFamilies = %v", FailureFamilies())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	jobs := []Job{sampleJob()}
	j2 := sampleJob()
	j2.ID = 2
	j2.ExitStatus = 0
	j2.User = "u,with,commas" // CSV quoting must survive
	jobs = append(jobs, j2)

	var buf bytes.Buffer
	if err := WriteCSV(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", jobs, back)
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	f := func(id int64, nodes uint16, exit uint8, startOff, durOff uint32) bool {
		if id <= 0 {
			id = -id + 1
		}
		base := time.Unix(1357000000, 0).UTC()
		j := Job{
			ID: id, User: "u1", Project: "p1", Queue: "prod",
			Submit: base, Start: base.Add(time.Duration(startOff) * time.Second),
			End:         base.Add(time.Duration(startOff) * time.Second).Add(time.Duration(durOff) * time.Second),
			WalltimeReq: time.Hour,
			Nodes:       int(nodes)%49152 + 1, RanksPerNode: 16,
			NumTasks: 1, ExitStatus: int(exit),
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, []Job{j}); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		return err == nil && len(back) == 1 && reflect.DeepEqual(back[0], j)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "nope,b,c\n",
		"bad id":     strings.Join(append([]string{"job_id,user,project,queue,submit_unix,start_unix,end_unix,walltime_req_s,nodes,ranks_per_node,num_tasks,exit_status"}, "x,u,p,q,1,2,3,4,5,6,7,8"), "\n"),
		"short row":  "job_id,user,project,queue,submit_unix,start_unix,end_unix,walltime_req_s,nodes,ranks_per_node,num_tasks,exit_status\n1,u\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestValidate(t *testing.T) {
	good := sampleJob()
	if err := good.Validate(); err != nil {
		t.Errorf("valid job rejected: %v", err)
	}
	cases := []func(*Job){
		func(j *Job) { j.ID = 0 },
		func(j *Job) { j.User = "" },
		func(j *Job) { j.Start = j.Submit.Add(-time.Minute) },
		func(j *Job) { j.End = j.Start.Add(-time.Minute) },
		func(j *Job) { j.Nodes = 0 },
		func(j *Job) { j.RanksPerNode = 0 },
		func(j *Job) { j.NumTasks = 0 },
	}
	for i, mutate := range cases {
		j := sampleJob()
		mutate(&j)
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: invalid job accepted", i)
		}
	}
}
