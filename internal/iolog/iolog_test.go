package iolog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleRecord() Record {
	return Record{
		JobID: 11, BytesRead: 1 << 30, BytesWritten: 1 << 33,
		FilesRead: 12, FilesWritten: 256, MetaOps: 100000,
		IOTime: 90 * time.Second,
	}
}

func TestDerivedAndValidate(t *testing.T) {
	r := sampleRecord()
	if r.TotalBytes() != (1<<30)+(1<<33) {
		t.Errorf("TotalBytes = %d", r.TotalBytes())
	}
	if err := r.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	cases := []func(*Record){
		func(x *Record) { x.JobID = 0 },
		func(x *Record) { x.BytesRead = -1 },
		func(x *Record) { x.FilesWritten = -1 },
		func(x *Record) { x.MetaOps = -1 },
		func(x *Record) { x.IOTime = -time.Second },
	}
	for i, mutate := range cases {
		r := sampleRecord()
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: invalid record accepted", i)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r1 := sampleRecord()
	r2 := sampleRecord()
	r2.JobID = 12
	r2.IOTime = 1500 * time.Millisecond
	records := []Record{r1, r2}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(records, back) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", records, back)
	}
}

func TestReadCSVErrors(t *testing.T) {
	h := "job_id,bytes_read,bytes_written,files_read,files_written,meta_ops,io_time_s"
	cases := map[string]string{
		"empty":      "",
		"bad header": "nope\n",
		"bad job":    h + "\nx,1,2,3,4,5,6\n",
		"bad time":   h + "\n1,1,2,3,4,5,zz\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
