package iolog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the I/O decoder: ReadCSV must never
// panic, and whatever it accepts must survive WriteCSV → ReadCSV unchanged
// up to the codec's millisecond io_time_s precision (CSVGranular).
func FuzzReadCSV(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteCSV(&golden, goldenRecords()); err != nil {
		f.Fatal(err)
	}
	h := strings.Join(header, ",") + "\n"
	f.Add(golden.Bytes())
	f.Add([]byte(h))
	f.Add([]byte(h + "1,2,3,4,5,6,x\n"))
	f.Add([]byte(h + "1,2,3,4,5,6,1.23456\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, records); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-reading written records: %v\n%q", err, out.Bytes())
		}
		want := append([]Record(nil), records...)
		for i := range want {
			want[i].IOTime = CSVGranular(want[i].IOTime)
		}
		if !reflect.DeepEqual(want, back) {
			t.Fatalf("round trip changed the records:\n got  %+v\n want %+v", back, want)
		}
	})
}
