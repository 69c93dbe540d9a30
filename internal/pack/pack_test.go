package pack_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/sim"
	"repro/internal/tasklog"
)

// trickyDataset exercises the quoting- and encoding-sensitive paths: RAS
// messages with embedded quotes/newlines/leading spaces (the PR 2 golden
// corpus cases), unsorted job ids, out-of-order timestamps in jobs, jobs
// without tasks or I/O records, and events without job attribution.
func trickyDataset(t testing.TB) *core.Dataset {
	t.Helper()
	t0 := time.Date(2013, 4, 9, 0, 0, 0, 0, time.UTC)
	jobs := []joblog.Job{
		{
			ID: 7, User: "alice", Project: "climate", Queue: "prod",
			Submit: t0, Start: t0.Add(5 * time.Minute), End: t0.Add(2 * time.Hour),
			WalltimeReq: 3 * time.Hour, Nodes: 512, RanksPerNode: 16, NumTasks: 1,
			ExitStatus: joblog.ExitSuccess,
		},
		{
			ID: 3, User: `bob "the builder"`, Project: "lattice,qcd", Queue: "prod",
			Submit: t0.Add(-time.Hour), Start: t0, End: t0.Add(30 * time.Minute),
			WalltimeReq: time.Hour, Nodes: 1024, RanksPerNode: 32, NumTasks: 2,
			ExitStatus: joblog.ExitSigSegv,
		},
		{
			ID: 12, User: "alice", Project: "climate", Queue: "backfill",
			Submit: t0.Add(time.Hour), Start: t0.Add(90 * time.Minute), End: t0.Add(4 * time.Hour),
			WalltimeReq: 6 * time.Hour, Nodes: 2048, RanksPerNode: 16, NumTasks: 1,
			ExitStatus: joblog.ExitSystemReserved,
		},
	}
	tasks := []tasklog.Task{
		{ID: 1, JobID: 7, Block: machine.Block{BaseMidplane: 0, Midplanes: 1}, Start: jobs[0].Start, End: jobs[0].End, Nodes: 512, ExitStatus: 0},
		{ID: 2, JobID: 3, Block: machine.Block{BaseMidplane: 4, Midplanes: 2}, Start: jobs[1].Start, End: jobs[1].End, Nodes: 1024, ExitStatus: 139},
		{ID: 3, JobID: 12, Block: machine.Block{BaseMidplane: 8, Midplanes: 4}, Start: jobs[2].Start, End: jobs[2].End, Nodes: 2048, ExitStatus: 320},
	}
	mustLoc := func(s string) machine.Location {
		loc, err := machine.ParseLocation(s)
		if err != nil {
			t.Fatal(err)
		}
		return loc
	}
	events := []raslog.Event{
		{RecID: 1, MsgID: "00040001", Comp: raslog.CompDDR, Cat: raslog.CatMemory, Sev: raslog.Info,
			Time: t0.Add(time.Minute), Loc: mustLoc("R02-M0-N03-J07"), JobID: 0, Count: 1,
			Message: "DDR correctable error summary"},
		{RecID: 2, MsgID: "00040003", Comp: raslog.CompDDR, Cat: raslog.CatMemory, Sev: raslog.Fatal,
			Time: t0.Add(10 * time.Minute), Loc: mustLoc("R02-M0-N03-J07"), JobID: 3, Count: 3,
			Message: `uncorrectable error, count="high"` + "\nsecond line"},
		{RecID: 3, MsgID: "00140002", Comp: raslog.CompCNK, Cat: raslog.CatSoftware, Sev: raslog.Warn,
			Time: t0.Add(20 * time.Minute), Loc: mustLoc("R04"), JobID: 12, Count: 1,
			Message: " leading space"},
		{RecID: 4, MsgID: "00200003", Comp: raslog.CompMMCS, Cat: raslog.CatInfra, Sev: raslog.Fatal,
			Time: t0.Add(3 * time.Hour), Loc: machine.System(), JobID: 12, Count: 1,
			Message: "service node failover"},
	}
	ioRecs := []iolog.Record{
		{JobID: 7, BytesRead: 1 << 40, BytesWritten: 123456789, FilesRead: 12, FilesWritten: 3,
			MetaOps: 99999, IOTime: 90*time.Minute + 123*time.Millisecond},
	}
	d, err := core.NewDataset(jobs, tasks, events, ioRecs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// splitRunDataset is a corpus whose task log, in log order, holds a task
// of job 7, one of job 3, an orphan task (job 99 matches no job), a
// second run of two job 7 tasks and a second job 3 task: jobs 7 and 3
// each have tasks in two separate runs, and the tasks are not in job-id
// order. Job 12 has no tasks. The job ids are trickyDataset's, so either
// corpus's tasks section reads against the other's jobs.
func splitRunDataset(t testing.TB) *core.Dataset {
	t.Helper()
	t0 := time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)
	job := func(id int64, user, queue string, exit int) joblog.Job {
		return joblog.Job{ID: id, User: user, Project: "p-" + user, Queue: queue,
			Submit: t0, Start: t0.Add(time.Duration(id) * time.Minute), End: t0.Add(time.Duration(id) * time.Hour),
			WalltimeReq: 2 * time.Duration(id) * time.Hour, Nodes: 512 * int(id), RanksPerNode: 16, NumTasks: 2, ExitStatus: exit}
	}
	jobs := []joblog.Job{job(3, "ann", "prod", 0), job(7, "bo", "debug", joblog.ExitSigSegv), job(12, "ann", "prod", joblog.ExitSystemReserved)}
	task := func(id, jobID int64, base int) tasklog.Task {
		return tasklog.Task{ID: id, JobID: jobID, Block: machine.Block{BaseMidplane: base, Midplanes: 2},
			Start: t0.Add(time.Duration(id) * time.Minute), End: t0.Add(time.Duration(id) * time.Hour), Nodes: 1024, ExitStatus: int(id % 3)}
	}
	tasks := []tasklog.Task{task(1, 7, 0), task(2, 3, 2), task(3, 99, 4), task(4, 7, 6), task(5, 7, 8), task(6, 3, 10)}
	events := []raslog.Event{{RecID: 1, MsgID: "00040003", Comp: raslog.CompDDR, Cat: raslog.CatMemory, Sev: raslog.Fatal,
		Time: jobs[1].End, Loc: machine.System(), JobID: 7, Count: 1, Message: "m"}}
	d, err := core.NewDataset(jobs, tasks, events, []iolog.Record{{JobID: 7, BytesRead: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.TaskRecords(), tasks) {
		t.Fatal("split-run dataset does not hold its task records")
	}
	return d
}

// generatedDataset builds a small but realistic corpus via the simulator.
func generatedDataset(t testing.TB) *core.Dataset {
	t.Helper()
	cfg := sim.SmallConfig()
	c, err := sim.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// writeCSVs renders the dataset's four logs as CSV byte images.
func writeCSVs(t *testing.T, d *core.Dataset) (jobs, tasks, ras, io []byte) {
	t.Helper()
	var jb, tb, rb, ib bytes.Buffer
	if err := joblog.WriteCSV(&jb, d.JobRecords()); err != nil {
		t.Fatal(err)
	}
	if err := tasklog.WriteCSV(&tb, d.TaskRecords()); err != nil {
		t.Fatal(err)
	}
	if err := raslog.WriteCSV(&rb, d.EventRecords()); err != nil {
		t.Fatal(err)
	}
	if err := iolog.WriteCSV(&ib, d.IO); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), tb.Bytes(), rb.Bytes(), ib.Bytes()
}

// TestRoundTripCSVByteIdentical pins the headline property: CSV → pack →
// CSV is byte-identical for all four logs, on both a hand-built corpus
// with quoting hazards and a simulator-generated one.
func TestRoundTripCSVByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *core.Dataset
	}{
		{"tricky", trickyDataset(t)},
		{"generated", generatedDataset(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j1, t1, r1, i1 := writeCSVs(t, tc.d)
			back, err := pack.Unmarshal(pack.Marshal(tc.d))
			if err != nil {
				t.Fatal(err)
			}
			j2, t2, r2, i2 := writeCSVs(t, back)
			for _, cmp := range []struct {
				log  string
				a, b []byte
			}{
				{"jobs", j1, j2}, {"tasks", t1, t2}, {"ras", r1, r2}, {"io", i1, i2},
			} {
				if !bytes.Equal(cmp.a, cmp.b) {
					t.Errorf("%s CSV differs after pack round trip", cmp.log)
				}
			}
		})
	}
}

// TestRoundTripDatasetEqual pins the second property: the dataset loaded
// from a snapshot deep-equals the dataset the snapshot was written from —
// logs, derived indexes and window bounds included.
func TestRoundTripDatasetEqual(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *core.Dataset
	}{
		{"tricky", trickyDataset(t)},
		{"split runs", splitRunDataset(t)},
		{"generated", generatedDataset(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			back, err := pack.Unmarshal(pack.Marshal(tc.d))
			if err != nil {
				t.Fatal(err)
			}
			// The source built its column views from the AoS logs, the
			// decoded side from the stored columns, so the deep-equal also
			// pins the two construction paths to identical views.
			if !reflect.DeepEqual(tc.d, back) {
				t.Fatal("dataset differs after pack round trip")
			}
		})
	}
}

// TestPackLoadEqualsCSVLoad writes a corpus directory both ways and checks
// the two loaders agree exactly, prebuilt indexes included.
func TestPackLoadEqualsCSVLoad(t *testing.T) {
	d := generatedDataset(t)
	dir := t.TempDir()
	jb, tb, rb, ib := writeCSVs(t, d)
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"jobs.csv", jb}, {"tasks.csv", tb}, {"ras.csv", rb}, {"io.csv", ib},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fromCSV, err := pack.LoadDir(dir, pack.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if err := pack.WriteFile(pack.SnapshotPath(dir), fromCSV); err != nil {
		t.Fatal(err)
	}
	fromPack, err := pack.LoadDir(dir, pack.FormatPack)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromCSV, fromPack) {
		t.Fatal("pack-loaded dataset differs from CSV-loaded dataset")
	}
	// Auto-detection prefers the snapshot when present.
	auto, err := pack.LoadDir(dir, pack.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto, fromPack) {
		t.Fatal("auto-loaded dataset differs from pack-loaded dataset")
	}
	// And falls back to CSV when absent.
	if err := os.Remove(pack.SnapshotPath(dir)); err != nil {
		t.Fatal(err)
	}
	fallback, err := pack.LoadDir(dir, pack.FormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fallback, fromCSV) {
		t.Fatal("auto fallback dataset differs from CSV-loaded dataset")
	}
}

// TestLoadCSVDirRejectsNegativeCount loads a corpus directory whose
// ras.csv holds an event count of -1: CSV parsing accepts it, but the
// dataset's check must reject it with an error naming the event, as a
// load of its pack would, so no pack is ever written from it.
func TestLoadCSVDirRejectsNegativeCount(t *testing.T) {
	d := trickyDataset(t)
	jb, tb, _, ib := writeCSVs(t, d)
	events := d.EventRecords()
	events[1].Count = -1
	var rb bytes.Buffer
	if err := raslog.WriteCSV(&rb, events); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{"jobs.csv": jb, "tasks.csv": tb, "ras.csv": rb.Bytes(), "io.csv": ib} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := pack.LoadCSVDir(dir)
	want := fmt.Sprintf("core: event %d (events row 1): event count -1 out of range [0, 2^31)", events[1].RecID)
	if err == nil || err.Error() != want {
		t.Fatalf("error %v, want %q", err, want)
	}
}

// TestReadFileErrorNamesPath reads a truncated snapshot file: the error
// carries the "pack: " prefix once, then the path, then the load's error.
func TestReadFileErrorNamesPath(t *testing.T) {
	data := pack.Marshal(trickyDataset(t))
	path := filepath.Join(t.TempDir(), "truncated.snapshot")
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := pack.ReadFile(path)
	if err == nil || !strings.HasPrefix(err.Error(), "pack: "+path+": truncated snapshot: ") || strings.Count(err.Error(), "pack: ") != 1 {
		t.Fatalf("error %v, want one \"pack: \" prefix, the path and the truncation", err)
	}
}

// TestInspect verifies the layout summary of a valid snapshot.
func TestInspect(t *testing.T) {
	data := pack.Marshal(trickyDataset(t))
	info, err := pack.Inspect(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != pack.Version {
		t.Fatalf("version %d, want %d", info.Version, pack.Version)
	}
	want := []string{"jobs", "tasks", "events", "io"}
	if len(info.Sections) != len(want) {
		t.Fatalf("got %d sections, want %d", len(info.Sections), len(want))
	}
	total := 0
	for i, s := range info.Sections {
		if s.Name != want[i] {
			t.Errorf("section %d: name %q, want %q", i, s.Name, want[i])
		}
		if s.Bytes <= 0 {
			t.Errorf("section %s: empty payload", s.Name)
		}
		total += s.Bytes
	}
	if total >= len(data) {
		t.Fatalf("sections (%d bytes) leave no room for the header in %d", total, len(data))
	}
}
