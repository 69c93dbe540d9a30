package pack

import (
	"repro/internal/core"
	"repro/internal/raslog"
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

// DecodeEventRecords loads an events-section payload and rebuilds its
// records from the loaded view.
func DecodeEventRecords(payload []byte) ([]raslog.Event, error) {
	v, _, err := loadEvents(payload)
	if err != nil {
		return nil, err
	}
	return core.EventRecordsOf(v), nil
}

// The version 3 oracle (v3_oracle_test.go), for the external tests.
var (
	MarshalV3       = marshalV3
	UnmarshalV3     = unmarshalV3
	ExportIndexesV3 = exportIndexesV3
	EncodeJobsV3    = encodeJobs
	EncodeTasksV3   = encodeTasks
)
