package pack_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/iolog"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/pack"
	"repro/internal/raslog"
	"repro/internal/tasklog"
)

// edgeDataset holds rows at the edges of the columns a load checks: node,
// ranks-per-node and task counts, task node counts and walltimes at both
// ends of [0, 2^31), exit statuses at the int32 limits, the largest event
// count, ids at the int64 limits, and the system location beside a node.
func edgeDataset(t testing.TB) *core.Dataset {
	t.Helper()
	t0 := time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC)
	jobs := []joblog.Job{
		{ID: math.MaxInt64, User: "", Project: "", Queue: "", Submit: t0, Start: t0, End: t0,
			WalltimeReq: 0, Nodes: math.MaxInt32, RanksPerNode: 0, NumTasks: math.MaxInt32, ExitStatus: math.MinInt32},
		{ID: math.MinInt64, User: "u", Project: "p", Queue: "q", Submit: t0.Add(-time.Hour), Start: t0, End: t0.Add(time.Hour),
			WalltimeReq: math.MaxInt32 * time.Second, Nodes: 0, RanksPerNode: math.MaxInt32, NumTasks: 0, ExitStatus: math.MaxInt32},
	}
	tasks := []tasklog.Task{
		{ID: 1, JobID: math.MaxInt64, Block: machine.Block{BaseMidplane: 0, Midplanes: 96}, Start: t0, End: t0, Nodes: math.MaxInt32, ExitStatus: math.MinInt32},
		{ID: 2, JobID: math.MinInt64, Block: machine.Block{BaseMidplane: 95, Midplanes: 1}, Start: t0, End: t0.Add(time.Hour), Nodes: 0, ExitStatus: math.MaxInt32},
	}
	node, err := machine.Node(47, 1, 15, 31)
	if err != nil {
		t.Fatal(err)
	}
	events := []raslog.Event{
		{RecID: math.MinInt64, MsgID: "", Sev: raslog.Info, Time: t0, Loc: machine.System(), JobID: math.MinInt64, Count: 0},
		{RecID: math.MaxInt64, MsgID: "00040003", Comp: raslog.CompDDR, Cat: raslog.CatMemory, Sev: raslog.Fatal,
			Time: t0.Add(time.Hour), Loc: node, JobID: math.MaxInt64, Count: math.MaxInt32, Message: "largest count"},
	}
	ioRecs := []iolog.Record{{JobID: math.MaxInt64, BytesRead: math.MaxInt64, BytesWritten: math.MinInt64, FilesRead: math.MaxInt32,
		FilesWritten: 0, MetaOps: math.MaxInt64, IOTime: 90 * time.Minute}}
	d, err := core.NewDataset(jobs, tasks, events, ioRecs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestViewsMatchV3Oracle is the oracle of the version 4 loader: a dataset
// written as version 4 and adopted must deep-equal the same dataset
// written as version 3 and decoded by the varint decoder it replaced —
// views, I/O records and derived indexes — on the small generated corpus,
// the split-run corpus with its orphan task, and the edge rows.
func TestViewsMatchV3Oracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *core.Dataset
	}{
		{"generated", generatedDataset(t)},
		{"split runs", splitRunDataset(t)},
		{"edge rows", edgeDataset(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v4, err := pack.Unmarshal(pack.Marshal(tc.d))
			if err != nil {
				t.Fatal(err)
			}
			v3, err := pack.UnmarshalV3(pack.MarshalV3(tc.d))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name     string
				got, old any
			}{
				{"job view", v4.JobView(), v3.JobView()},
				{"task view", v4.TaskView(), v3.TaskView()},
				{"event view", v4.EventView(), v3.EventView()},
				{"I/O records", v4.IO, v3.IO},
			} {
				if !reflect.DeepEqual(c.got, c.old) {
					t.Errorf("%s adopted from version 4 differs from the version 3 decode", c.name)
				}
			}
			if !reflect.DeepEqual(v4, v3) {
				t.Error("dataset loaded from version 4 differs from the version 3 decode")
			}
		})
	}
}

// TestEdgeRowsRoundTrip writes the edge rows, which NewDataset accepts,
// through memory, CSV and pack: the records the pack-loaded and the
// CSV-loaded datasets rebuild are the dataset's own.
func TestEdgeRowsRoundTrip(t *testing.T) {
	d := edgeDataset(t)
	back, err := pack.Unmarshal(pack.Marshal(d))
	if err != nil {
		t.Fatal(err)
	}
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
	fromCSV, err := pack.LoadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*core.Dataset{"pack": back, "csv": fromCSV} {
		if !reflect.DeepEqual(got.JobRecords(), d.JobRecords()) || !reflect.DeepEqual(got.TaskRecords(), d.TaskRecords()) ||
			!reflect.DeepEqual(got.EventRecords(), d.EventRecords()) || !reflect.DeepEqual(got.IO, d.IO) {
			t.Errorf("%s: edge rows differ after the round trip", name)
		}
	}
}

// TestExportIndexesMatchesScan checks the per-job event lists the
// version 3 indexes section holds: every attributed event, under its job
// id, in time order, ids ascending, orphan ids (no matching job)
// included.
func TestExportIndexesMatchesScan(t *testing.T) {
	d := generatedDataset(t)
	recs := d.EventRecords()
	want := map[int64][]int{}
	for i := range recs {
		if id := recs[i].JobID; id != 0 {
			want[id] = append(want[id], i)
		}
	}
	jv := d.JobView()
	orphan := jv.ID[jv.N-1] + 1000
	for i := 0; i < len(recs); i += len(recs)/3 + 1 {
		if recs[i].JobID == 0 {
			want[orphan] = append(want[orphan], i)
		}
	}
	events := append([]raslog.Event(nil), recs...)
	for _, i := range want[orphan] {
		events[i].JobID = orphan
	}
	od, err := core.NewDataset(d.JobRecords(), d.TaskRecords(), events, d.IO)
	if err != nil {
		t.Fatal(err)
	}
	got := pack.ExportIndexesV3(od).JobEvents
	if len(got) != len(want) {
		t.Fatalf("%d per-job lists, want %d", len(got), len(want))
	}
	for k, je := range got {
		if k > 0 && je.JobID <= got[k-1].JobID {
			t.Fatalf("job id %d follows %d", je.JobID, got[k-1].JobID)
		}
		if !reflect.DeepEqual(je.Idx, want[je.JobID]) {
			t.Fatalf("job %d: events %v, want %v", je.JobID, je.Idx, want[je.JobID])
		}
	}
}

// sliceFields calls f with the name, length and capacity of every slice
// field of the view v points to.
func sliceFields(v any, f func(name string, len, cap int)) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if fv := rv.Field(i); fv.Kind() == reflect.Slice {
			f(rv.Type().Field(i).Name, fv.Len(), fv.Cap())
		}
	}
}

// TestAdoptedColumnsAreExact loads a pack file and requires every column
// of the job, task and event views to have cap == len, so no append to an
// adopted column can write into the bytes that follow it in the mapping.
func TestAdoptedColumnsAreExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), pack.SnapshotName)
	if err := pack.WriteFile(path, generatedDataset(t)); err != nil {
		t.Fatal(err)
	}
	d, err := pack.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []any{d.JobView(), d.TaskView(), d.EventView()} {
		sliceFields(v, func(name string, n, c int) {
			if n != c {
				t.Errorf("%T.%s: len %d, cap %d", v, name, n, c)
			}
		})
	}
}

// TestMarshalDeterministic writes one dataset twice, and the same dataset
// reloaded from its image: all three images are the same bytes, padding
// included.
func TestMarshalDeterministic(t *testing.T) {
	d := generatedDataset(t)
	a, b := pack.Marshal(d), pack.Marshal(d)
	back, err := pack.Unmarshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) || !bytes.Equal(a, pack.Marshal(back)) {
		t.Fatal("Marshal is not a function of the dataset")
	}
}

// TestWriteFileReplacesMappedPack loads a pack, rewrites the same path
// with another corpus, and reads the first dataset again: its columns
// still hold the first corpus, because WriteFile renames a new file over
// the old one instead of truncating the file the dataset is mapped from.
func TestWriteFileReplacesMappedPack(t *testing.T) {
	first, second := trickyDataset(t), generatedDataset(t)
	path := filepath.Join(t.TempDir(), pack.SnapshotName)
	if err := pack.WriteFile(path, first); err != nil {
		t.Fatal(err)
	}
	loaded, err := pack.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pack.WriteFile(path, second); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.JobView(), first.JobView()) || !reflect.DeepEqual(loaded.TaskView(), first.TaskView()) ||
		!reflect.DeepEqual(loaded.EventView(), first.EventView()) {
		t.Fatal("a loaded dataset's columns changed when its file was rewritten")
	}
	again, err := pack.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.JobView(), second.JobView()) {
		t.Fatal("the rewritten file does not hold the second corpus")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after two writes, want the snapshot alone", len(entries))
	}
}

// TestMappingRetired loads a pack file, keeps one column slice and drops
// the dataset: after a collection the owner's finalizer has retired the
// mapping (MappedBytes falls back), and the kept column, now reading
// pages released from the mapping, still holds the same values.
func TestMappingRetired(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("snapshots are mapped on linux only")
	}
	src := generatedDataset(t)
	path := filepath.Join(t.TempDir(), pack.SnapshotName)
	if err := pack.WriteFile(path, src); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Earlier tests' datasets may still await their finalizers; let them
	// retire first, so the count moves only with this test's mapping.
	before := settledMappedBytes()
	d, err := pack.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := pack.MappedBytes() - before; got != st.Size() {
		t.Fatalf("mapped bytes grew by %d on load, want the file's %d", got, st.Size())
	}
	times := d.EventView().TimeUnix
	d = nil
	for i := 0; i < 200 && pack.MappedBytes() != before; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := pack.MappedBytes(); got != before {
		t.Fatalf("mapped bytes %d after the dataset was dropped, want %d: the mapping was not retired", got, before)
	}
	if !reflect.DeepEqual(times, src.EventView().TimeUnix) {
		t.Fatal("a column read after its mapping was retired differs")
	}
}

// settledMappedBytes collects until no finalizer retires a mapping
// between two collections, and returns the mapped bytes left.
func settledMappedBytes() int64 {
	n := pack.MappedBytes()
	for i := 0; i < 100; i++ {
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
		if m := pack.MappedBytes(); m == n {
			break
		} else {
			n = m
		}
	}
	return n
}
