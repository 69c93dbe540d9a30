package pack

import (
	"repro/internal/core"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// EncodeEvents writes an events section from records, through the event
// view a dataset builds from them, for the external tests.
func EncodeEvents(events []raslog.Event) []byte {
	v := core.BuildEventView(events)
	v.LocCode = storedLocCodes(v.LocCode)
	w := &writer{}
	writeColumns(w, v.N, v, eventColumns[:])
	return w.buf
}

// DecodeEventRecords adopts an events-section payload and rebuilds its
// records from the adopted view, which it does not check: the payload
// must hold the columns of a checked view, as EncodeEvents writes them.
func DecodeEventRecords(payload []byte) ([]raslog.Event, error) {
	var v scan.EventView
	n, err := adoptColumns(&reader{name: "events", b: aligned(payload)}, &v, eventColumns[:])
	if err != nil {
		return nil, err
	}
	v.N = n
	return core.EventRecordsOf(&v), nil
}

// The version 3 oracle (v3_oracle_test.go), for the external tests.
var (
	MarshalV3       = marshalV3
	UnmarshalV3     = unmarshalV3
	ExportIndexesV3 = exportIndexesV3
	EncodeJobsV3    = encodeJobs
	EncodeTasksV3   = encodeTasks
)
