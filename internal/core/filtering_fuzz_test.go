package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
)

// fuzzMsgs are the message catalog of decoded events: distinct message ids
// that share categories, so message-id and category similarity disagree.
var fuzzMsgs = []struct {
	id  string
	cat raslog.Category
}{
	{"00040003", raslog.CatMemory},
	{"00040004", raslog.CatMemory},
	{"00080004", raslog.CatNetwork},
	{"00061001", raslog.CatNetwork},
}

// fuzzEvents decodes bytes into a time-sorted RAS stream. The first byte
// picks the stream's start: the zero time.Time (where a zero-time "no open
// incident" sentinel, or a gap converted to nanoseconds, would go wrong),
// a few seconds after it, or a realistic date. Each
// event then takes five bytes:
//
//	time step (0 ties the previous event; the top two bits pick the unit),
//	severity, location level and rack, midplane/board/node, and message
//	plus job id (0 for none, else one of three ids, so bursts repeat them).
//
// Locations use few racks and components so keys collide at every level.
func fuzzEvents(t *testing.T, data []byte) []raslog.Event {
	t.Helper()
	if len(data) == 0 {
		return nil
	}
	var at time.Time
	switch data[0] % 3 {
	case 1:
		at = at.Add(time.Duration(data[0]) * time.Second)
	case 2:
		at = filterT0
	}
	data = data[1:]
	units := []time.Duration{time.Second, time.Minute, 10 * time.Minute, time.Hour}
	const maxEvents = 256
	var events []raslog.Event
	for len(data) >= 5 && len(events) < maxEvents {
		b := data[:5]
		data = data[5:]
		at = at.Add(time.Duration(b[0]&0x3f) * units[b[0]>>6])
		rack, mid, board, node := int(b[2]>>3)%4, int(b[3])%2, int(b[3]>>1)%3, int(b[3]>>3)%3
		var loc machine.Location
		var err error
		switch b[2] % 5 {
		case 0:
			loc = machine.System()
		case 1:
			loc, err = machine.Rack(rack)
		case 2:
			loc, err = machine.Midplane(rack, mid)
		case 3:
			loc, err = machine.NodeBoard(rack, mid, board)
		default:
			loc, err = machine.Node(rack, mid, board, node)
		}
		if err != nil {
			t.Fatal(err)
		}
		msg := fuzzMsgs[int(b[4])%len(fuzzMsgs)]
		events = append(events, raslog.Event{
			RecID: int64(len(events) + 1), MsgID: msg.id, Cat: msg.cat,
			Sev:  []raslog.Severity{raslog.Fatal, raslog.Warn, raslog.Info}[int(b[1])%3],
			Time: at, Loc: loc, JobID: int64(b[4]>>2) % 4, Count: 1,
		})
	}
	return events
}

// FuzzFilter is the differential fuzzer of the incident filter and its
// consumers: on any decoded stream and under every equivRules
// configuration, the raw-stream entry point, the memoized Dataset entry
// points (each called twice, so the second call reads the key memo), the
// Dataset sweep and MTTI must reproduce the reference fold row for row,
// the packed key interning must assign the struct-keyed interning's ids,
// and LeadTimeSweep and SpatialCorrelationIncidents over the columns must
// equal their row oracles over the reference rows.
func FuzzFilter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 0, 5, 0, 0, 4, 0, 5, 1, 0, 4, 0, 4})
	f.Add([]byte{2, 1, 0, 4, 9, 4, 0, 1, 12, 1, 8, 64, 0, 20, 2, 1, 0, 1, 4, 9, 6})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 128, 0, 3, 3, 3, 0, 0, 3, 3, 3, 63, 1, 2, 3, 4})
	f.Add([]byte{2, 1, 1, 4, 9, 4, 0, 0, 4, 9, 4, 1, 0, 4, 9, 5, 67, 1, 4, 9, 4, 1, 0, 4, 9, 6, 66, 0, 3, 9, 4, 0, 1, 12, 1, 8})
	// A WARN burst 2 s before a FATAL on one midplane: a lead the 1500 ms
	// lookback must floor away.
	f.Add([]byte{2, 0, 1, 2, 0, 0, 2, 0, 2, 0, 0})
	// FATALs on three racks' midplanes at 0 s, 3600 s and 3601 s: a pair
	// gap the 1 h 500 ms E21 window must floor away.
	f.Add([]byte{2, 0, 0, 2, 0, 0, 0xc1, 0, 12, 0, 1, 1, 0, 17, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := fuzzEvents(t, data)
		var start time.Time
		if len(events) > 0 {
			start = events[0].Time
		}
		jobs := []joblog.Job{{
			ID: 1, User: "u", Project: "p", Queue: "q",
			Submit: start, Start: start, End: start.Add(time.Hour),
			WalltimeReq: 2 * time.Hour, Nodes: 512, RanksPerNode: 16, NumTasks: 1,
		}}
		d, err := NewDataset(jobs, nil, events, nil)
		if err != nil {
			t.Fatal(err)
		}
		records := d.EventRecords()
		for _, rule := range equivRules() {
			var got [2]Incidents
			var want [2][]Incident
			for s, sev := range []struct {
				sev    raslog.Severity
				filter func(FilterRule) (Incidents, error)
			}{
				{raslog.Fatal, d.FilterFatal},
				{raslog.Warn, d.FilterWarn},
			} {
				ref, err := referenceFilterBySeverity(events, sev.sev, rule)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := FilterBySeverity(events, sev.sev, rule)
				if err != nil {
					t.Fatal(err)
				}
				if diff := incidentsDiff(events, raw, ref); diff != "" {
					t.Fatalf("FilterBySeverity %v rule %+v: %s", sev.sev, rule, diff)
				}
				idx := severityIndex(events, sev.sev)
				if got, want := internKeys(BuildEventView(events), idx, rule), referenceInternKeys(events, idx, rule); !reflect.DeepEqual(got, want) {
					t.Fatalf("internKeys %v rule %+v: %+v, reference %+v", sev.sev, rule, got, want)
				}
				if want[s], err = referenceFilterBySeverity(records, sev.sev, rule); err != nil {
					t.Fatal(err)
				}
				for call := 0; call < 2; call++ {
					if got[s], err = sev.filter(rule); err != nil {
						t.Fatal(err)
					}
					if diff := incidentsDiff(records, got[s], want[s]); diff != "" {
						t.Fatalf("Dataset filter %v rule %+v call %d: %s", sev.sev, rule, call, diff)
					}
				}
			}
			wantSweep := []SweepPoint{{Window: rule.Window, Incidents: len(want[0])}}
			if raw := len(d.fatalIdx); raw > 0 {
				wantSweep[0].Reduction = 1 - float64(len(want[0]))/float64(raw)
			}
			sweep, err := d.FilterSweep(rule, []time.Duration{rule.Window}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sweep, wantSweep) {
				t.Fatalf("FilterSweep rule %+v: %+v, reference %+v", rule, sweep, wantSweep)
			}
			wantMTTI, err := referenceFilterBySeverity(jobFatalEvents(d), raslog.Fatal, rule)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.MTTI(rule)
			if err != nil {
				t.Fatal(err)
			}
			checkMTTI(t, d, rule, res, wantMTTI)
			checkIncidentConsumers(t, d, got[0], got[1], want[0], want[1])
		}
	})
}
