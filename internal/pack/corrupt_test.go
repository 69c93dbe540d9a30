package pack_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/pack"
)

// corruptSnapshot returns a fresh valid snapshot image for mutation.
func corruptSnapshot(t *testing.T) []byte {
	t.Helper()
	data := pack.Marshal(trickyDataset(t))
	return append([]byte(nil), data...)
}

// expectError asserts Unmarshal fails and mentions the expected phrase; it
// also asserts no partial dataset leaks out.
func expectError(t *testing.T, data []byte, phrase string) {
	t.Helper()
	d, err := pack.Unmarshal(data)
	if err == nil {
		t.Fatalf("want error mentioning %q, got a dataset", phrase)
	}
	if d != nil {
		t.Fatalf("error %v returned alongside a partial dataset", err)
	}
	if !strings.Contains(err.Error(), phrase) {
		t.Fatalf("error %q does not mention %q", err, phrase)
	}
	// Inspect must reject header/section corruption the same way; section
	// payload corruption it also sees via the checksums.
	if _, err := pack.Inspect(data); err == nil && phrase != "" {
		// Inspect only validates the envelope; payload-level phrases that
		// pass checksums (none in these tests) would be acceptable.
		t.Fatalf("Inspect accepted a snapshot Unmarshal rejected (%q)", phrase)
	}
}

func TestTruncatedSnapshot(t *testing.T) {
	data := corruptSnapshot(t)
	for _, tc := range []struct {
		name   string
		keep   int
		phrase string
	}{
		{"empty", 0, "header"},
		{"mid-header", 10, "header"},
		{"mid-table", 30, "section table"},
		{"mid-payload", len(data) - 1, "exceeds file size"},
		{"half", len(data) / 2, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			truncated := data[:tc.keep]
			if _, err := pack.Unmarshal(truncated); err == nil {
				t.Fatal("truncated snapshot decoded without error")
			}
			if tc.phrase != "" {
				expectError(t, truncated, tc.phrase)
			}
		})
	}
}

func TestFlippedByte(t *testing.T) {
	base := corruptSnapshot(t)
	// Flip one byte in every section payload region (past the header and
	// table): each must be caught by that section's checksum.
	headerEnd := 16 + 4*24
	stride := (len(base) - headerEnd) / 16
	if stride == 0 {
		stride = 1
	}
	for off := headerEnd; off < len(base); off += stride {
		data := append([]byte(nil), base...)
		data[off] ^= 0x40
		expectError(t, data, "checksum mismatch")
	}
}

func TestFlippedChecksumByte(t *testing.T) {
	// Flipping a stored checksum (not the payload) must also fail loudly.
	data := corruptSnapshot(t)
	data[16+4] ^= 0x01 // crc32 field of the first section entry
	expectError(t, data, "checksum mismatch")
}

func TestWrongMagic(t *testing.T) {
	data := corruptSnapshot(t)
	copy(data, "NOTAPACK")
	expectError(t, data, "not a mirapack snapshot")
}

// TestWrongVersion rejects a newer version and versions 3, 2 and 1, the
// varint layout, with the error that asks for a regenerated snapshot:
// both on a version 4 image relabelled and on a real version 3 image.
func TestWrongVersion(t *testing.T) {
	for _, v := range []uint32{pack.Version + 1, 3, 2, 1} {
		data := corruptSnapshot(t)
		binary.LittleEndian.PutUint32(data[8:], v)
		expectError(t, data, "supports only version")
	}
	v3 := pack.MarshalV3(trickyDataset(t))
	if _, err := pack.UnmarshalV3(v3); err != nil {
		t.Fatalf("version 3 oracle rejects its own image: %v", err)
	}
	expectError(t, v3, "regenerate the snapshot")
}

func TestMissingSection(t *testing.T) {
	// Rewrite the table to claim zero sections: structurally valid, but the
	// decoder must notice the missing logs rather than return empties.
	data := corruptSnapshot(t)
	binary.LittleEndian.PutUint32(data[12:], 0)
	expectError(t, data, "no events section")
}

// TestCorruptEventsAndTasks corrupts the events and the tasks sections of
// one image, by checksum and by re-signed malformed payloads. The two
// sections decode on different goroutines, and whichever finishes first,
// every call must report the events section: the first in section order.
func TestCorruptEventsAndTasks(t *testing.T) {
	base := corruptSnapshot(t)
	payloads := splitSections(t, base)
	tasksAt, eventsAt := sectionIndex(t, base, "tasks"), sectionIndex(t, base, "events")

	flipped := append([]byte(nil), base...)
	for _, k := range []int{tasksAt, eventsAt} {
		off := binary.LittleEndian.Uint64(flipped[fuzzHeaderSize+k*fuzzEntrySize+8:])
		flipped[off] ^= 0x40
	}
	// Half of each payload: its row count promises more columns than remain.
	malformed := resign(base, payloads, eventsAt, payloads[eventsAt][:len(payloads[eventsAt])/2])
	malformed = resign(malformed, splitSections(t, malformed), tasksAt, payloads[tasksAt][:len(payloads[tasksAt])/2])
	// The tasks corruption alone fails too, so both goroutines have an
	// error to race.
	tasksOnly := resign(base, payloads, tasksAt, payloads[tasksAt][:len(payloads[tasksAt])/2])
	if _, err := pack.Unmarshal(tasksOnly); err == nil || !strings.Contains(err.Error(), "section tasks") {
		t.Fatalf("malformed tasks section alone: error %v, want a tasks error", err)
	}

	for _, tc := range []struct {
		name, phrase string
		data         []byte
	}{
		{"checksum", "section events checksum mismatch", flipped},
		{"malformed", "pack: section events at byte", malformed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for call := 0; call < 50; call++ {
				d, err := pack.Unmarshal(tc.data)
				if err == nil || d != nil {
					t.Fatalf("call %d: got dataset %v, error %v", call, d != nil, err)
				}
				if !strings.Contains(err.Error(), tc.phrase) {
					t.Fatalf("call %d: error %q does not mention %q", call, err, tc.phrase)
				}
			}
		})
	}
}

// sectionIndex returns the table position of the named section.
func sectionIndex(t *testing.T, data []byte, name string) int {
	t.Helper()
	info, err := pack.Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range info.Sections {
		if s.Name == name {
			return i
		}
	}
	t.Fatalf("no %s section", name)
	return 0
}

// TestEventsOutOfTimeOrder re-signs an events payload whose second and
// third events have their times swapped. Every column decodes within its
// bounds, so the load fails only on the dataset's time-order check, with a
// pack error.
func TestEventsOutOfTimeOrder(t *testing.T) {
	base := corruptSnapshot(t)
	events := trickyDataset(t).EventRecords()
	events[1].Time, events[2].Time = events[2].Time, events[1].Time
	eventsAt := sectionIndex(t, base, "events")
	swapped := pack.EncodeEvents(events)
	_, err := pack.Unmarshal(resign(base, splitSections(t, base), eventsAt, swapped))
	if err == nil || !strings.HasPrefix(err.Error(), "pack: ") || !strings.Contains(err.Error(), "not in time order") {
		t.Fatalf("swapped event times: error %v, want a pack error naming the time order", err)
	}
}

// TestExitStatusBeyondInt32 re-signs a version 3 jobs and tasks section
// whose first row has an exit status no int32 holds. The version 3
// column is a zigzag varint of any width, but the job and task views hold
// int32, so the oracle's load fails with an error naming the section and
// the value. Version 4 stores the int32 view column itself, which holds
// no such value.
func TestExitStatusBeyondInt32(t *testing.T) {
	base := pack.MarshalV3(trickyDataset(t))
	d := trickyDataset(t)
	jobs, tasks := d.JobRecords(), d.TaskRecords()
	jobs[0].ExitStatus = 1 << 40
	tasks[0].ExitStatus = -1 << 40
	for _, tc := range []struct {
		section, want string
		payload       []byte
		at            int
	}{
		{"jobs", "section jobs at byte", pack.EncodeJobsV3(jobs), 0},
		{"tasks", "section tasks at byte", pack.EncodeTasksV3(tasks), 1},
	} {
		_, err := pack.UnmarshalV3(resign(base, splitSections(t, base), tc.at, tc.payload))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "does not fit an int32") {
			t.Errorf("%s: error %v, want a %s error naming the int32 bound", tc.section, err, tc.section)
		}
	}
}
