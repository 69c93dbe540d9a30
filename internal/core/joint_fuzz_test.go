package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/sim"
)

var jointFuzzData par.Memo[*Dataset]

// jointFuzzDataset is the 30-day corpus the cohort fuzzer selects from,
// built once per process: like a daemon's Dataset, its whole-table memo
// and joint attribution index serve every cohort after the first.
func jointFuzzDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := jointFuzzData.Get(func() (*Dataset, error) {
		c, err := sim.Generate(sim.SmallConfig())
		if err != nil {
			return nil, err
		}
		return NewDataset(c.Jobs, c.Tasks, c.Events, c.IO)
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// cohortFromBytes decodes a cohort predicate: the first three bytes pick a
// job-side conjunct (none, one user, one exit family, a submit window, a
// node bound, or failed jobs of one project) and the next three an
// event-side one (none, FATAL, one rack, a time window, one midplane, or
// one category). It returns "" when both sides are unconstrained.
func cohortFromBytes(d *Dataset, b [6]byte) string {
	jv, ev := d.JobView(), d.EventView()
	var parts []string
	switch b[0] % 6 {
	case 1:
		parts = append(parts, "user == "+jv.Users[int(b[1])%len(jv.Users)])
	case 2:
		fams := joblog.FailureFamilies()
		parts = append(parts, fmt.Sprintf("exit == %s", fams[int(b[1])%len(fams)]))
	case 3:
		lo := jv.SubmitUnix[int(b[1])*jv.N/256]
		parts = append(parts, fmt.Sprintf("submit >= %d and submit < %d", lo, lo+int64(b[2])*3600))
	case 4:
		parts = append(parts, fmt.Sprintf("nodes >= %d", 512<<(b[1]%5)))
	case 5:
		parts = append(parts, "exit != success and project == "+jv.Projects[int(b[1])%len(jv.Projects)])
	}
	switch b[3] % 6 {
	case 1:
		parts = append(parts, "sev == FATAL")
	case 2:
		rack, _ := machine.Rack(int(b[4]) % machine.NumRacks)
		parts = append(parts, "rack == "+rack.String())
	case 3:
		lo := ev.TimeUnix[int(b[4])*ev.N/256]
		parts = append(parts, fmt.Sprintf("time >= %d and time < %d", lo, lo+int64(b[5])*3600))
	case 4:
		mid, _ := machine.MidplaneByID(int(b[4]) % machine.TotalMidplanes)
		parts = append(parts, "midplane == "+mid.String())
	case 5:
		parts = append(parts, "cat == "+ev.Cats[int(b[4])%len(ev.Cats)])
	}
	return strings.Join(parts, " and ")
}

// FuzzCohortJoint is the differential fuzzer of the joint attribution
// index: for any cohort the bytes pick over the 30-day corpus, the joint
// tally the index counts over CompileWhere's selections equals the one
// the unmemoized reference scan counts with the per-row oracle kernel; an
// unconstrained cohort checks FusedScan's Joint. The seventh byte picks
// the worker count.
func FuzzCohortJoint(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 2, 7, 0, 0})
	f.Add([]byte{5, 3, 0, 1, 0, 0, 2})
	f.Add([]byte{2, 6, 0, 3, 128, 48, 3})
	f.Add([]byte{3, 40, 200, 4, 17, 0, 1})
	f.Add([]byte{4, 2, 0, 5, 1, 0, 0})
	f.Add([]byte{1, 9, 0, 3, 30, 255, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [7]byte
		copy(b[:], data)
		d := jointFuzzDataset(t)
		where := cohortFromBytes(d, [6]byte(b[:6]))
		workers := 1 + int(b[6])%4
		var jobSel, eventSel *bitmap.Bitmap
		var err error
		if where != "" {
			if jobSel, eventSel, err = d.CompileWhere(mustParse(t, where)); err != nil {
				t.Fatalf("%q: %v", where, err)
			}
		}
		want, err := referenceScanSel(d, jobSel, eventSel)
		if err != nil {
			t.Fatal(err)
		}
		w, err := d.wholeTable(workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.joint.count(jobSel, eventSel); got != want.Joint.SystemCause {
			t.Fatalf("%q workers=%d: joint count %d, oracle %d", where, workers, got, want.Joint.SystemCause)
		}
		if where == "" {
			p, err := d.FusedScan(workers)
			if err != nil {
				t.Fatal(err)
			}
			if p.Joint != want.Joint {
				t.Fatalf("workers=%d: whole-table joint %+v, oracle %+v", workers, p.Joint, want.Joint)
			}
		}
	})
}
