package pack

import (
	"repro/internal/core"
	"repro/internal/raslog"
)

// EncodeEvents exposes the events-section encoder to the external tests.
var EncodeEvents = encodeEvents

// DecodeEventRecords decodes an events-section payload and rebuilds its
// records from the decoded view.
func DecodeEventRecords(payload []byte) ([]raslog.Event, error) {
	v, err := decodeEvents(payload, &arena{})
	if err != nil {
		return nil, err
	}
	return core.EventRecordsOf(v), nil
}
