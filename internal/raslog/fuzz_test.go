package raslog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV feeds arbitrary bytes to the RAS decoder. ReadCSV must never
// panic; whatever it accepts must survive WriteCSV → ReadCSV unchanged;
// and the streaming Scanner (mirafilter's path) must yield the same events
// wherever ReadCSV succeeds and fail wherever it fails.
func FuzzReadCSV(f *testing.F) {
	var golden bytes.Buffer
	if err := WriteCSV(&golden, goldenEvents(f)); err != nil {
		f.Fatal(err)
	}
	h := strings.Join(header, ",") + "\n"
	f.Add(golden.Bytes())
	f.Add([]byte(h))
	f.Add([]byte(h + "1,m,CNK,Software,NOPE,1,MIR,0,1,x\n"))
	f.Add([]byte(h + "1,m,CNK,Software,FATAL,-86401,R00-M1,0,1,\"a\"\"b\"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadCSV(bytes.NewReader(data))
		streamed, serr := scanAll(data)
		if (err == nil) != (serr == nil) {
			t.Fatalf("ReadCSV error %v, Scanner error %v", err, serr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(events, streamed) {
			t.Fatalf("Scanner yielded %d events unlike ReadCSV's %d", len(streamed), len(events))
		}
		var out bytes.Buffer
		if err := WriteCSV(&out, events); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-reading written events: %v\n%q", err, out.Bytes())
		}
		if !reflect.DeepEqual(events, back) {
			t.Fatalf("round trip changed the events:\n got  %+v\n want %+v", back, events)
		}
	})
}

// scanAll drains a Scanner over data.
func scanAll(data []byte) ([]Event, error) {
	sc, err := NewScanner(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var events []Event
	for sc.Scan() {
		events = append(events, sc.Event())
	}
	return events, sc.Err()
}
