package pack_test

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/tasklog"
)

// Snapshot envelope geometry (see the layout comment in pack.go).
const (
	fuzzHeaderSize = 8 + 4 + 4
	fuzzEntrySize  = 4 + 4 + 8 + 8
)

// splitSections returns the payloads of a valid snapshot in table order.
func splitSections(t testing.TB, data []byte) [][]byte {
	t.Helper()
	count := int(binary.LittleEndian.Uint32(data[12:]))
	payloads := make([][]byte, count)
	for i := range payloads {
		entry := data[fuzzHeaderSize+i*fuzzEntrySize:]
		off := binary.LittleEndian.Uint64(entry[8:])
		length := binary.LittleEndian.Uint64(entry[16:])
		payloads[i] = data[off : off+length]
	}
	return payloads
}

// resign rebuilds the snapshot with section k's payload replaced and the
// section table (offsets, lengths, checksums) rewritten to match, so the
// replacement passes the envelope checks and reaches the section decoder.
func resign(data []byte, payloads [][]byte, k int, payload []byte) []byte {
	out := append([]byte(nil), data[:fuzzHeaderSize]...)
	offset := uint64(fuzzHeaderSize + len(payloads)*fuzzEntrySize)
	body := make([]byte, 0, len(data)+len(payload))
	for i, p := range payloads {
		if i == k {
			p = payload
		}
		entry := data[fuzzHeaderSize+i*fuzzEntrySize:]
		out = binary.LittleEndian.AppendUint32(out, binary.LittleEndian.Uint32(entry))
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
		out = binary.LittleEndian.AppendUint64(out, offset)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(p)))
		offset += uint64(len(p))
		body = append(body, p...)
	}
	return append(out, body...)
}

// FuzzDecode replaces one fuzz-chosen section of a small valid snapshot
// with the fuzz bytes and re-signs it; with the high bit of the section
// choice set, it loads the image from an odd address, so no column can be
// adopted in place. Unmarshal must return exactly one of an error or a
// dataset, never panic, and never allocate more than the image can
// justify: every loader sizes its allocations from counts it first
// bounds by the bytes remaining, so the total stays within a constant
// factor of the image size. A dataset it returns must
// have severity views that index events of their severity, its rebuilt
// event records must survive the events-section encoder and decoder
// unchanged, and its rebuilt job, task and event records must survive a
// whole Marshal and Unmarshal unchanged. The seeds include the sections
// of the split-run corpus: its tasks section over the base's jobs has an
// orphan task and jobs with tasks in two runs, which reach the
// constructor's per-job task index.
func FuzzDecode(f *testing.F) {
	base := pack.Marshal(trickyDataset(f))
	payloads := splitSections(f, base)
	for k, p := range payloads {
		f.Add(uint8(k), append([]byte(nil), p...))
		f.Add(uint8(k), append([]byte(nil), p[:len(p)/2]...))
		f.Add(uint8(0x80|k), append([]byte(nil), p...))
	}
	// A jobs section whose row count overruns its columns.
	overrun := append([]byte(nil), payloads[0]...)
	binary.LittleEndian.PutUint64(overrun, binary.LittleEndian.Uint64(overrun)+1000)
	f.Add(uint8(0), overrun)
	for k, p := range splitSections(f, pack.Marshal(splitRunDataset(f))) {
		f.Add(uint8(k), append([]byte(nil), p...))
	}
	f.Add(uint8(0), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// A jobs section whose ids span more than int64 holds.
	t0 := time.Date(2013, 4, 9, 0, 0, 0, 0, time.UTC)
	var jobs []joblog.Job
	for _, id := range []int64{math.MinInt64 + 1, math.MaxInt64} {
		jobs = append(jobs, joblog.Job{ID: id, User: "u", Project: "p", Queue: "q",
			Submit: t0, Start: t0, End: t0.Add(time.Hour), WalltimeReq: time.Hour,
			Nodes: 512, RanksPerNode: 16, NumTasks: 1})
	}
	extreme, err := core.NewDataset(jobs, nil, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), splitSections(f, pack.Marshal(extreme))[0])
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		k := int(which&0x7f) % len(payloads)
		image := resign(base, payloads, k, payload)
		if which&0x80 != 0 {
			odd := make([]byte, len(image)+1)
			copy(odd[1:], image)
			image = odd[1:]
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := pack.Unmarshal(image)
		runtime.ReadMemStats(&after)
		if (err == nil) == (d == nil) {
			t.Fatalf("Unmarshal returned dataset %v with error %v", d != nil, err)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+1024*len(image)); got > limit {
			t.Fatalf("Unmarshal of a %d-byte image allocated %d bytes (limit %d)", len(image), got, limit)
		}
		if d == nil {
			return
		}
		// The severity views index the event rows directly in every
		// FATAL/WARN pass: the incidents of each hold all its events, and
		// each incident starts at an event of its severity.
		sev := d.EventView().Sev
		for s, filter := range map[raslog.Severity]func(core.FilterRule) (core.Incidents, error){
			raslog.Fatal: d.FilterFatal, raslog.Warn: d.FilterWarn} {
			in, err := filter(core.DefaultFilterRule())
			if err != nil {
				t.Fatal(err)
			}
			want, got := 0, 0
			for _, x := range sev {
				if raslog.Severity(x) == s {
					want++
				}
			}
			for i := 0; i < in.Len(); i++ {
				got += int(in.Events[i])
				if raslog.Severity(sev[in.Row[i]]) != s {
					t.Fatalf("%v view holds event %d of severity %v", s, in.Row[i], raslog.Severity(sev[in.Row[i]]))
				}
			}
			if got != want {
				t.Fatalf("%v view holds %d events, the severity column %d", s, got, want)
			}
		}
		records := d.EventRecords()
		back, err := pack.DecodeEventRecords(pack.EncodeEvents(records))
		if err != nil {
			t.Fatalf("re-encoded event records do not decode: %v", err)
		}
		if !reflect.DeepEqual(back, records) {
			t.Fatal("event records differ after an encode/decode round trip")
		}
		again, err := pack.Unmarshal(pack.Marshal(d))
		if err != nil {
			t.Fatalf("re-encoded dataset does not decode: %v", err)
		}
		if !reflect.DeepEqual(again.JobRecords(), d.JobRecords()) || !reflect.DeepEqual(again.TaskRecords(), d.TaskRecords()) ||
			!reflect.DeepEqual(again.EventRecords(), records) {
			t.Fatal("records differ after a Marshal/Unmarshal round trip")
		}
	})
}

// FuzzDatasetRoundTrip builds a job, its task and up to four events from
// fuzz values: the task's block code and node count, and per event (ten
// bytes each) its severity, a time offset in seconds, its count and its
// location code (a code machine.LocationFromCode rejects gives the zero
// Location). Whatever NewDataset accepts must read back from its own
// pack: Unmarshal(Marshal(d)) succeeds, and its job, task and event
// records deep-equal d's.
func FuzzDatasetRoundTrip(f *testing.F) {
	event := func(sev uint8, dt uint8, count int32, loc uint32) []byte {
		b := []byte{sev, dt}
		b = binary.LittleEndian.AppendUint32(b, uint32(count))
		return binary.LittleEndian.AppendUint32(b, loc)
	}
	node, err := machine.Node(47, 1, 15, 31)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(0x0002), int32(1024), append(event(uint8(raslog.Fatal), 9, 1, node.Code()), event(uint8(raslog.Info), 0, 0, machine.System().Code())...))
	f.Add(uint16(0x0002), int32(1024), event(uint8(raslog.Warn), 3, -1, node.Code()))
	f.Add(uint16(0x0000), int32(512), event(0, 0, math.MaxInt32, 0))
	f.Add(uint16(0x0060), int32(-1), event(4, 0, math.MinInt32, 1<<19))
	f.Fuzz(func(t *testing.T, block uint16, nodes int32, raw []byte) {
		t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
		jobs := []joblog.Job{{ID: 1, User: "u", Project: "p", Queue: "q", Submit: t0, Start: t0, End: t0.Add(time.Hour),
			WalltimeReq: time.Hour, Nodes: int(nodes), RanksPerNode: 16, NumTasks: 1}}
		tasks := []tasklog.Task{{ID: 1, JobID: 1, Block: machine.Block{BaseMidplane: int(block >> 8), Midplanes: int(block & 0xff)},
			Start: t0, End: t0.Add(time.Hour), Nodes: int(nodes)}}
		var events []raslog.Event
		for i := 0; i+10 <= len(raw) && len(events) < 4; i += 10 {
			loc, err := machine.LocationFromCode(binary.LittleEndian.Uint32(raw[i+6:]))
			if err != nil {
				loc = machine.Location{}
			}
			events = append(events, raslog.Event{RecID: int64(i), MsgID: "00040003", Sev: raslog.Severity(raw[i]),
				Time: t0.Add(time.Duration(raw[i+1]) * time.Second), Loc: loc, JobID: 1,
				Count: int(int32(binary.LittleEndian.Uint32(raw[i+2:])))})
		}
		d, err := core.NewDataset(jobs, tasks, events, nil)
		if err != nil {
			return
		}
		back, err := pack.Unmarshal(pack.Marshal(d))
		if err != nil {
			t.Fatalf("NewDataset accepts the records, but their pack does not load: %v", err)
		}
		if !reflect.DeepEqual(back.JobRecords(), d.JobRecords()) || !reflect.DeepEqual(back.TaskRecords(), d.TaskRecords()) ||
			!reflect.DeepEqual(back.EventRecords(), d.EventRecords()) {
			t.Fatal("records differ after a Marshal/Unmarshal round trip")
		}
	})
}
