package pack_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pack"
	"repro/internal/sel"
)

// whereProfileEqual compares the exported aggregates of two fused
// profiles (the pack-side mirror of the core equivalence helper).
func whereProfileEqual(t *testing.T, label string, got, want *core.FusedProfile) {
	t.Helper()
	cmp := func(name string, g, w interface{}) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s differs:\n  got  %+v\n  want %+v", label, name, g, w)
		}
	}
	whereCohortEqual(t, label, &got.Cohort, &want.Cohort)
	cmp("Joint", got.Joint, want.Joint)
	cmp("ProjectGroups", got.ProjectGroups, want.ProjectGroups)
	cmp("Temporal", got.Temporal, want.Temporal)
	cmp("RAS", got.RAS, want.RAS)
	cmp("Waste", got.Waste, want.Waste)
	cmp("Interrupts", got.Interrupts, want.Interrupts)
	cmp("InterruptsErr", fmt.Sprint(got.InterruptsErr), fmt.Sprint(want.InterruptsErr))
	for _, lvl := range []machine.Level{machine.LevelMidplane, machine.LevelRack} {
		g, gErr := got.Locality(lvl)
		w, wErr := want.Locality(lvl)
		cmp("Locality("+lvl.String()+")", g, w)
		cmp("Locality("+lvl.String()+") err", fmt.Sprint(gErr), fmt.Sprint(wErr))
	}
}

// whereCohortEqual compares the three fields of two cohorts.
func whereCohortEqual(t *testing.T, label string, got, want *core.Cohort) {
	t.Helper()
	for _, f := range []struct {
		name string
		g, w interface{}
	}{
		{"Summary", got.Summary, want.Summary},
		{"Exit", got.Exit, want.Exit},
		{"UserGroups", got.UserGroups, want.UserGroups},
	} {
		if !reflect.DeepEqual(f.g, f.w) {
			t.Errorf("%s: %s differs:\n  got  %+v\n  want %+v", label, f.name, f.g, f.w)
		}
	}
}

// TestFusedScanWhereCSVvsPack closes the acceptance loop on the loader
// side: the whole-corpus profile must be identical on a CSV-loaded and a
// pack-loaded corpus, and for each predicate so must the pushdown Cohort,
// which must also equal the Cohort of its own materialize-then-scan
// reference, across worker counts.
func TestFusedScanWhereCSVvsPack(t *testing.T) {
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

	for _, workers := range []int{1, 4} {
		pCSV, err := fromCSV.FusedScan(workers)
		if err != nil {
			t.Fatal(err)
		}
		pPack, err := fromPack.FusedScan(workers)
		if err != nil {
			t.Fatal(err)
		}
		whereProfileEqual(t, fmt.Sprintf("whole corpus workers=%d csv-vs-pack", workers), pCSV, pPack)
	}

	jv, ev := fromPack.JobView(), fromPack.EventView()
	preds := []string{
		fmt.Sprintf("user == %s", jv.Users[0]),
		"exit != success and nodes >= 1024",
		"sev == FATAL",
		fmt.Sprintf("project == %s and sev != INFO", jv.Projects[0]),
		// Each use of the whole-table memo's job half: an event-only
		// cohort whose span starts after the corpus's, one holding the
		// first event (span equals the corpus's), a coalesced job-only
		// pair, and a coalesced pair next to an event constraint.
		fmt.Sprintf("time >= %d", ev.TimeUnix[ev.N/3]),
		fmt.Sprintf("sev == %s", fromPack.EventRecords()[0].Sev),
		"nodes > 512 and nodes <= 4096",
		fmt.Sprintf("submit >= %d and submit < %d and sev == FATAL", jv.SubmitUnix[jv.N/4], jv.SubmitUnix[jv.N/2]),
		// No job matches: MaterializeWhere cannot build this cohort, so
		// only CSV and pack are compared.
		"user == nosuchuser",
	}
	for _, where := range preds {
		e, err := sel.Parse(where)
		if err != nil {
			t.Fatalf("parse %q: %v", where, err)
		}
		var ref *core.FusedProfile
		if jobSel, _, err := fromPack.CompileWhere(e); err != nil {
			t.Fatalf("compile %q: %v", where, err)
		} else if jobSel == nil || !jobSel.IsEmpty() {
			md, err := fromPack.MaterializeWhere(e)
			if err != nil {
				t.Fatalf("materialize %q: %v", where, err)
			}
			if ref, err = md.FusedScan(4); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 4, 8} {
			pCSV, err := fromCSV.FusedScanWhere(e, workers)
			if err != nil {
				t.Fatalf("csv FusedScanWhere(%q): %v", where, err)
			}
			pPack, err := fromPack.FusedScanWhere(e, workers)
			if err != nil {
				t.Fatalf("pack FusedScanWhere(%q): %v", where, err)
			}
			whereCohortEqual(t, fmt.Sprintf("%q workers=%d csv-vs-pack", where, workers), pCSV, pPack)
			if ref != nil {
				whereCohortEqual(t, fmt.Sprintf("%q workers=%d pack-vs-materialized", where, workers), pPack, &ref.Cohort)
			} else if pPack.Summary.Jobs != 0 {
				t.Errorf("%q: %d jobs in a cohort that selects none", where, pPack.Summary.Jobs)
			}
		}
	}
}
