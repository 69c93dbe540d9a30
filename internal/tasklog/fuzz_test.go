package tasklog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the task decoder: ReadCSV must never
// panic, and whatever it accepts must survive WriteCSV → ReadCSV unchanged.
func FuzzReadCSV(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteCSV(&golden, goldenTasks()); err != nil {
		f.Fatal(err)
	}
	h := strings.Join(header, ",") + "\n"
	f.Add(golden.Bytes())
	f.Add([]byte(h))
	f.Add([]byte(h + "1,2,B99-01,3,4,512,0\n"))
	f.Add([]byte(h + "1,2,B04-04,-86401,-3600,2048,1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tasks, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, tasks); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-reading written tasks: %v\n%q", err, out.Bytes())
		}
		if !reflect.DeepEqual(tasks, back) {
			t.Fatalf("round trip changed the tasks:\n got  %+v\n want %+v", back, tasks)
		}
	})
}
