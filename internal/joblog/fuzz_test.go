package joblog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the job decoder: ReadCSV must never
// panic, and whatever it accepts must survive WriteCSV → ReadCSV unchanged.
func FuzzReadCSV(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteCSV(&golden, goldenJobs()); err != nil {
		f.Fatal(err)
	}
	h := strings.Join(header, ",") + "\n"
	f.Add(golden.Bytes())
	f.Add([]byte(h))
	f.Add([]byte(h + "x,u,p,q,1,2,3,4,5,6,7,8\n"))
	f.Add([]byte(h + "1,u,p,q,-86401,-3600,0,4,512,16,1,0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, jobs); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-reading written jobs: %v\n%q", err, out.Bytes())
		}
		if !reflect.DeepEqual(jobs, back) {
			t.Fatalf("round trip changed the jobs:\n got  %+v\n want %+v", back, jobs)
		}
	})
}
