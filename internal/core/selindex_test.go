package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/joblog"
	"repro/internal/machine"
	"repro/internal/scan"
)

// addBuild is the index oracle: bitmap s holds the rows whose slot is s,
// added one row at a time and then optimized.
func addBuild(n, rows int, slot func(i int) int) []bitmap.Bitmap {
	slots := make([]bitmap.Bitmap, n)
	for i := 0; i < rows; i++ {
		if s := slot(i); s >= 0 {
			slots[s].Add(uint32(i))
		}
	}
	for s := range slots {
		slots[s].Optimize()
	}
	return slots
}

// dimOracle returns dimension k's slot count, the key of slot 0 and each
// row's slot, read row by row from the view columns.
func dimOracle(x *selIndexes, k dimKey) (n int, base int64, slot func(i int) int) {
	jv, ev := x.jv, x.ev
	switch k {
	case dimUser:
		return len(jv.Users), 0, func(i int) int { return int(jv.UserID[i]) }
	case dimProject:
		return len(jv.Projects), 0, func(i int) int { return int(jv.ProjectID[i]) }
	case dimExit:
		return joblog.NumFamilies, 0, func(i int) int { return int(jv.Family[i]) }
	case dimSubmit:
		if jv.N == 0 {
			return 0, 0, nil
		}
		lo, _ := floorDay(jv.SubmitUnix[0])
		hi := lo
		for _, u := range jv.SubmitUnix {
			d, _ := floorDay(u)
			lo, hi = min(lo, d), max(hi, d)
		}
		return int(hi-lo) + 1, lo, func(i int) int { d, _ := floorDay(jv.SubmitUnix[i]); return int(d - lo) }
	case dimSev:
		return 4, 0, func(i int) int { return int(ev.Sev[i]) }
	case dimCat:
		return len(ev.Cats), 0, func(i int) int { return int(ev.CatID[i]) }
	case dimComp:
		return len(ev.Comps), 0, func(i int) int { return int(ev.CompID[i]) }
	case dimMidplane:
		return machine.TotalMidplanes, 0, func(i int) int { return int(ev.MidplaneID[i]) }
	case dimRack:
		return machine.NumRacks, 0, func(i int) int { return int(ev.RackID[i]) }
	}
	panic(fmt.Sprintf("no oracle for dimension %d", k))
}

// checkDims builds every dimension of x and compares each slot's bitmap
// with the oracle's, chunk for chunk.
func checkDims(t *testing.T, label string, x *selIndexes) {
	t.Helper()
	for k := range dimSpecs {
		name := fmt.Sprintf("%s %s.%s", label, dimSpecs[k].dom, dimSpecs[k].col)
		n, base, slot := dimOracle(x, dimKey(k))
		want := addBuild(n, x.rows(dimSpecs[k].dom), slot)
		got := x.dim(dimKey(k))
		if len(got.slots) != len(want) || got.base != base {
			t.Errorf("%s: %d slots from key %d, oracle %d from key %d", name, len(got.slots), got.base, len(want), base)
			continue
		}
		for s := range want {
			if err := bitmap.SameEncoding(&got.slots[s], &want[s]); err != nil {
				t.Errorf("%s slot %d: %v", name, s, err)
			}
		}
	}
}

// syntheticViews returns job and event views of rows rows each, holding
// only the columns the selection indexes read. Slots come in runs of
// random length, from single rows to thousands, so the chunks hold array,
// bitset and run containers; about one event in eight has no midplane and
// one in sixteen no rack (slot -1), and some submit times precede 1970.
func syntheticViews(rows int, rng *rand.Rand) (*scan.JobView, *scan.EventView) {
	runs := func(n int, col func(i, s int)) {
		for i := 0; i < rows; {
			s := rng.Intn(n)
			for l := 1 + rng.Intn([]int{1, 8, 5000}[rng.Intn(3)]); l > 0 && i < rows; l-- {
				col(i, s)
				i++
			}
		}
	}
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	jv := &scan.JobView{N: rows, Users: names("u", 40), Projects: names("p", 7),
		UserID: make([]int32, rows), ProjectID: make([]int32, rows), Family: make([]uint8, rows), SubmitUnix: make([]int64, rows)}
	ev := &scan.EventView{N: rows, Cats: names("c", 12), Comps: names("m", 5),
		Sev: make([]uint8, rows), CatID: make([]int32, rows), CompID: make([]int32, rows),
		MidplaneID: make([]int32, rows), RackID: make([]int32, rows)}
	runs(len(jv.Users), func(i, s int) { jv.UserID[i] = int32(s) })
	runs(len(jv.Projects), func(i, s int) { jv.ProjectID[i] = int32(s) })
	runs(joblog.NumFamilies, func(i, s int) { jv.Family[i] = uint8(s) })
	runs(4, func(i, s int) { ev.Sev[i] = uint8(s) })
	runs(len(ev.Cats), func(i, s int) { ev.CatID[i] = int32(s) })
	runs(len(ev.Comps), func(i, s int) { ev.CompID[i] = int32(s) })
	runs(machine.TotalMidplanes+12, func(i, s int) { ev.MidplaneID[i] = int32(max(s-12, -1)) })
	for i := range ev.MidplaneID {
		if m := ev.MidplaneID[i]; m < 0 {
			ev.RackID[i] = int32(i%2) - 1 // -1 or 0
		} else {
			ev.RackID[i] = m / machine.MidplanesPerRack
		}
	}
	t := -int64(3 * 86400)
	for i := range jv.SubmitUnix {
		t += rng.Int63n(120)
		jv.SubmitUnix[i] = t - rng.Int63n(2*86400) // out of order across day bounds
	}
	return jv, ev
}

// TestDimIndexMatchesAddBuild checks the index build kernel against the
// per-row Add + Optimize build for every dimension, container by
// container: on the test corpus, and on synthetic views whose row counts
// sit on either side of the 65,536-row chunk seams.
func TestDimIndexMatchesAddBuild(t *testing.T) {
	d, _ := dataset(t)
	checkDims(t, "corpus", newSelIndexes(d.JobView(), d.EventView()))
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{1, chunkRows - 1, chunkRows, chunkRows + 1, 2*chunkRows + 1} {
		jv, ev := syntheticViews(rows, rng)
		checkDims(t, fmt.Sprintf("%d rows", rows), newSelIndexes(jv, ev))
	}
}

// FuzzDimIndex checks the index build kernel against the Add-built
// reference on a slot column drawn from the fuzz input. The first byte
// picks the slot count, the next three the row count (under three chunks),
// and the rest, as (slot, run length) pairs repeated to fill the rows, the
// slots, -1 included.
func FuzzDimIndex(f *testing.F) {
	f.Add([]byte{3, 0, 0, 16, 1, 2, 2, 0, 0, 9})
	f.Add([]byte{1, 1, 0xff, 0xff, 1, 0xff, 0, 1})
	f.Add([]byte{7, 2, 1, 0, 3, 200, 5, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0]%8)
		rows := int(data[1]%3)*chunkRows + int(binary.LittleEndian.Uint16(data[2:4]))
		col := make([]int32, rows)
		pairs := data[4:]
		for i, p := 0, 0; i < rows; p += 2 {
			s, l := int32(i%(n+1))-1, 1
			if len(pairs) >= 2 {
				q := p % (len(pairs) &^ 1)
				s, l = int32(int(pairs[q])%(n+1))-1, 1+int(pairs[q+1])*int(pairs[q+1])
			}
			for ; l > 0 && i < rows; l-- {
				col[i] = s
				i++
			}
		}
		got := columnSlots(n, col)
		want := addBuild(n, rows, func(i int) int { return int(col[i]) })
		for s := range want {
			if err := bitmap.SameEncoding(&got[s], &want[s]); err != nil {
				t.Fatalf("%d rows, slot %d of %d: %v", rows, s, n, err)
			}
		}
	})
}
