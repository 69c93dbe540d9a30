package pack

import (
	"repro/internal/core"
	"repro/internal/raslog"
)

// EncodeJobs, EncodeTasks and EncodeEvents expose the section encoders to
// the external tests.
var (
	EncodeJobs   = encodeJobs
	EncodeTasks  = encodeTasks
	EncodeEvents = encodeEvents
)

// DecodeEventRecords decodes an events-section payload and rebuilds its
// records from the decoded view.
func DecodeEventRecords(payload []byte) ([]raslog.Event, error) {
	v, err := decodeEvents(payload, &arena{})
	if err != nil {
		return nil, err
	}
	return core.EventRecordsOf(v), nil
}
