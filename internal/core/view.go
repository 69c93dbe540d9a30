package core

import (
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/raslog"
	"repro/internal/scan"
)

// BuildJobView constructs the SoA column mirror of the hot job columns from
// AoS records. Dictionaries are interned in first-appearance order, which is
// also the order the mirapack encoder assigns, so built and pack-decoded
// views are identical.
func BuildJobView(jobs []joblog.Job) *scan.JobView {
	n := len(jobs)
	v := &scan.JobView{
		N:          n,
		ID:         make([]int64, n),
		SubmitUnix: make([]int64, n),
		StartUnix:  make([]int64, n),
		EndUnix:    make([]int64, n),
		DurSec:     make([]int64, n),
		Nodes:      make([]int32, n),
		CoreSec:    make([]int64, n),
		Exit:       make([]int32, n),
		Family:     make([]uint8, n),
		UserID:     make([]int32, n),
		ProjectID:  make([]int32, n),
	}
	users := map[string]int32{}
	projects := map[string]int32{}
	for i := range jobs {
		j := &jobs[i]
		v.ID[i] = j.ID
		v.SubmitUnix[i] = j.Submit.Unix()
		v.StartUnix[i] = j.Start.Unix()
		v.EndUnix[i] = j.End.Unix()
		v.DurSec[i] = v.EndUnix[i] - v.StartUnix[i]
		v.Nodes[i] = int32(j.Nodes)
		v.CoreSec[i] = j.CoreSeconds()
		v.Exit[i] = int32(j.ExitStatus)
		v.Family[i] = joblog.FamilyCodeOf(j.ExitStatus)
		uid, ok := users[j.User]
		if !ok {
			uid = int32(len(v.Users))
			users[j.User] = uid
			v.Users = append(v.Users, j.User)
		}
		v.UserID[i] = uid
		pid, ok := projects[j.Project]
		if !ok {
			pid = int32(len(v.Projects))
			projects[j.Project] = pid
			v.Projects = append(v.Projects, j.Project)
		}
		v.ProjectID[i] = pid
	}
	return v
}

// BuildEventView constructs the SoA column mirror of the hot RAS event
// columns from AoS records.
func BuildEventView(events []raslog.Event) *scan.EventView {
	n := len(events)
	v := &scan.EventView{
		N:          n,
		TimeUnix:   make([]int64, n),
		Sev:        make([]uint8, n),
		CatID:      make([]int32, n),
		CompID:     make([]int32, n),
		MidplaneID: make([]int32, n),
		RackID:     make([]int32, n),
	}
	cats := map[raslog.Category]int32{}
	comps := map[raslog.Component]int32{}
	for i := range events {
		e := &events[i]
		v.TimeUnix[i] = e.Time.Unix()
		v.Sev[i] = uint8(e.Sev)
		cid, ok := cats[e.Cat]
		if !ok {
			cid = int32(len(v.Cats))
			cats[e.Cat] = cid
			v.Cats = append(v.Cats, string(e.Cat))
		}
		v.CatID[i] = cid
		mid, ok := comps[e.Comp]
		if !ok {
			mid = int32(len(v.Comps))
			comps[e.Comp] = mid
			v.Comps = append(v.Comps, string(e.Comp))
		}
		v.CompID[i] = mid
		v.MidplaneID[i], v.RackID[i] = LocIDs(e.Loc)
	}
	return v
}

// LocIDs maps a location to its dense midplane and rack ids, -1 where the
// location is coarser than the level. The mirapack decoder uses it to fill
// event-view columns straight from the stored location codes.
func LocIDs(loc machine.Location) (midplane, rack int32) {
	midplane, rack = -1, -1
	lvl := loc.Level()
	if lvl >= machine.LevelRack {
		rack = int32(loc.RackIndex())
	}
	if lvl >= machine.LevelMidplane {
		if id, err := loc.MidplaneID(); err == nil {
			midplane = int32(id)
		}
	}
	return midplane, rack
}

// JobView returns the dataset's SoA job-column mirror. The view is
// immutable and safe for concurrent use.
func (d *Dataset) JobView() *scan.JobView { return d.jobView }

// EventView returns the dataset's SoA event-column mirror, in time order.
// The view is immutable and safe for concurrent use.
func (d *Dataset) EventView() *scan.EventView { return d.eventView }
