package pack

import (
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/scan"
	"repro/internal/sim"
)

// TestAdoptCopiesOffLittleEndianHosts loads one image twice, adopting its
// columns in place and as a host that is not little-endian must, by
// decoding copies. The two datasets must be equal, and only the first may
// hold columns inside the image.
func TestAdoptCopiesOffLittleEndianHosts(t *testing.T) {
	cfg := sim.SmallConfig()
	cfg.Days = 5
	c, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	image := Marshal(src)
	inImage := func(col []int64) bool {
		p, lo := uintptr(unsafe.Pointer(unsafe.SliceData(col))), uintptr(unsafe.Pointer(unsafe.SliceData(image)))
		return p >= lo && p < lo+uintptr(len(image))
	}
	adopted, err := Unmarshal(image)
	if err != nil {
		t.Fatal(err)
	}
	hostLittleEndian = false
	copied, err := Unmarshal(image)
	hostLittleEndian = true
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adopted, copied) || !reflect.DeepEqual(adopted, src) {
		t.Fatal("columns decoded as on a big-endian host differ from the adopted ones")
	}
	if !inImage(adopted.EventView().TimeUnix) || inImage(copied.EventView().TimeUnix) {
		t.Fatal("adopted columns are not over the image, or copied ones are")
	}
}

// TestLoadRejectsCorruptColumns edits one stored value of a valid image
// at a time, through the views adopted over the image's own bytes, and
// re-signs the section: each edit breaks exactly one of the checks a load
// makes, and the load must fail with that check's error.
func TestLoadRejectsCorruptColumns(t *testing.T) {
	cfg := sim.SmallConfig()
	cfg.Days = 5
	c, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	// edit adopts the named section of a fresh image into v, lets f edit
	// the adopted columns (and so the image) or the payload, and re-signs
	// the section's checksum.
	edit := func(id uint32, v any, f func(payload []byte)) []byte {
		image := Marshal(src)
		sections, err := parseHeader(image)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range sections {
			if s.id != id {
				continue
			}
			r := &reader{name: sectionName(id), b: s.payload}
			switch v := v.(type) {
			case *scan.JobView:
				v.N, err = adoptColumns(r, v, jobColumns[:])
			case *scan.TaskView:
				v.N, err = adoptColumns(r, v, taskColumns[:])
			case *scan.EventView:
				v.N, err = adoptColumns(r, v, eventColumns[:])
			}
			if err != nil {
				t.Fatal(err)
			}
			f(s.payload)
			binary.LittleEndian.PutUint32(image[headerSize+i*sectionEntrySize+4:], crc32.ChecksumIEEE(s.payload))
		}
		return image
	}
	var jv scan.JobView
	var tv scan.TaskView
	var ev scan.EventView
	for _, tc := range []struct {
		name, want string
		image      []byte
	}{
		{"user code", "section jobs row 1: user code", edit(secJobs, &jv, func([]byte) { jv.UserID[1] = int32(len(jv.Users)) })},
		{"negative project code", "section jobs row 0: project code -1", edit(secJobs, &jv, func([]byte) { jv.ProjectID[0] = -1 })},
		{"queue code", "section jobs row 2: queue code", edit(secJobs, &jv, func([]byte) { jv.QueueID[2] = 1 << 30 })},
		{"walltime", "walltime -1 out of range", edit(secJobs, &jv, func([]byte) { jv.WalltimeSec[0] = -1 })},
		{"walltime 2^31", "walltime 2147483648 out of range", edit(secJobs, &jv, func([]byte) { jv.WalltimeSec[0] = 1 << 31 })},
		{"node count", "node count -512 out of range", edit(secJobs, &jv, func([]byte) { jv.Nodes[1] = -512 })},
		{"ranks", "ranks-per-node -1 out of range", edit(secJobs, &jv, func([]byte) { jv.RanksPerNode[1] = -1 })},
		{"task count", "task count -1 out of range", edit(secJobs, &jv, func([]byte) { jv.NumTasks[1] = -1 })},
		{"duration", "do not match the times", edit(secJobs, &jv, func([]byte) { jv.DurSec[3]++ })},
		{"core seconds", "do not match the times", edit(secJobs, &jv, func([]byte) { jv.CoreSec[3]++ })},
		{"family", "does not match exit status", edit(secJobs, &jv, func([]byte) { jv.Family[4]++ })},
		{"duplicate job id", "section jobs: core: duplicate job id", edit(secJobs, &jv, func([]byte) { jv.ID[1] = jv.ID[0] })},
		{"nonzero padding", "section jobs at byte", edit(secJobs, &jv, func(p []byte) {
			if jv.N%8 == 0 {
				t.Fatal("the family column has no padding to corrupt")
			}
			p[len(p)-1] = 1
		})},
		{"block code", "section tasks row 1: machine: block code", edit(secTasks, &tv, func([]byte) { tv.Block[1] = 0xffff })},
		{"task nodes", "section tasks row 2: node count -1 out of range", edit(secTasks, &tv, func([]byte) { tv.Nodes[2] = -1 })},
		{"message id code", "section events row 1: message id code", edit(secEvents, &ev, func([]byte) { ev.MsgID[1] = int32(len(ev.MsgIDs)) })},
		{"component code", "section events row 1: component code", edit(secEvents, &ev, func([]byte) { ev.CompID[1] = -7 })},
		{"category code", "section events row 1: category code", edit(secEvents, &ev, func([]byte) { ev.CatID[1] = int32(len(ev.Cats)) })},
		{"message code", "section events row 1: message code", edit(secEvents, &ev, func([]byte) { ev.Msg[1] = int32(len(ev.Messages)) })},
		{"severity 0", "section events row 2: severity 0 out of range", edit(secEvents, &ev, func([]byte) { ev.Sev[2] = 0 })},
		{"severity 4", "section events row 2: severity 4 out of range", edit(secEvents, &ev, func([]byte) { ev.Sev[2] = 4 })},
		{"location code 2^19", "location code 524288 out of range", edit(secEvents, &ev, func([]byte) { ev.LocCode[3] = 1 << 19 })},
		{"location code 0", "section events row 3: machine: location code", edit(secEvents, &ev, func([]byte) { ev.LocCode[3] = 0 })},
		{"location code -1 first", "section events row 0: location code -1 out of range", edit(secEvents, &ev, func([]byte) {
			ev.LocCode[0], ev.MidplaneID[0], ev.RackID[0] = -1, -1, -1
		})},
		{"midplane", "do not match location code", edit(secEvents, &ev, func([]byte) { ev.MidplaneID[3] += 2 })},
		{"rack", "do not match location code", edit(secEvents, &ev, func([]byte) { ev.RackID[3] = -9 })},
		{"event count", "event count -1 out of range", edit(secEvents, &ev, func([]byte) { ev.Count[4] = -1 })},
		{"time order", "events are not in time order", edit(secEvents, &ev, func([]byte) { ev.TimeUnix[5] = ev.TimeUnix[4] - 1 })},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := Unmarshal(tc.image)
			if err == nil || d != nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "pack: section ") {
				t.Fatalf("got dataset %v, error %v; want a pack: section error containing %q", d != nil, err, tc.want)
			}
		})
	}
}
