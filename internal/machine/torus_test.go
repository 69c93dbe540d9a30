package machine

import (
	"testing"
	"testing/quick"
)

func TestTorusDimsCoverMachine(t *testing.T) {
	prod := 1
	for _, d := range TorusDims {
		prod *= d
	}
	if prod != TotalMidplanes {
		t.Fatalf("torus dims product %d != %d midplanes", prod, TotalMidplanes)
	}
}

func TestTorusCoordRoundTrip(t *testing.T) {
	for id := 0; id < TotalMidplanes; id++ {
		c, err := MidplaneTorusCoord(id)
		if err != nil {
			t.Fatal(err)
		}
		back, err := MidplaneIDFromTorus(c)
		if err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("round trip %d -> %v -> %d", id, c, back)
		}
	}
	if _, err := MidplaneTorusCoord(-1); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := MidplaneTorusCoord(TotalMidplanes); err == nil {
		t.Error("out-of-range id accepted")
	}
	if _, err := MidplaneIDFromTorus(TorusCoord{0, 0, 0, 0, 5}); err == nil {
		t.Error("bad coord accepted")
	}
}

func TestTorusDistanceProperties(t *testing.T) {
	// Identity, symmetry, triangle inequality (on a sample), wraparound.
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%TotalMidplanes, int(b)%TotalMidplanes, int(c)%TotalMidplanes
		dxy, err1 := TorusDistance(x, y)
		dyx, err2 := TorusDistance(y, x)
		dxz, err3 := TorusDistance(x, z)
		dzy, err4 := TorusDistance(z, y)
		dxx, err5 := TorusDistance(x, x)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil {
			return false
		}
		return dxx == 0 && dxy == dyx && dxy <= dxz+dzy && dxy >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTorusDistanceWraparound(t *testing.T) {
	// Along dim C (size 4): coordinates 0 and 3 are 1 apart via the wrap.
	a, err := MidplaneIDFromTorus(TorusCoord{0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MidplaneIDFromTorus(TorusCoord{0, 0, 3, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	d, err := TorusDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Errorf("wraparound distance = %d, want 1", d)
	}
}

func TestTorusNeighbors(t *testing.T) {
	for id := 0; id < TotalMidplanes; id++ {
		ns, err := TorusNeighbors(id)
		if err != nil {
			t.Fatal(err)
		}
		// Dims {2,3,4,4,1}: A has 1 distinct neighbor (size 2 wraps to the
		// same single other), B has 2, C has 2, D has 2, E has 0 → 7.
		if len(ns) != 7 {
			t.Fatalf("midplane %d has %d neighbors, want 7", id, len(ns))
		}
		for _, n := range ns {
			d, err := TorusDistance(id, n)
			if err != nil {
				t.Fatal(err)
			}
			if d != 1 {
				t.Errorf("neighbor %d of %d at distance %d", n, id, d)
			}
			if n == id {
				t.Errorf("midplane %d is its own neighbor", id)
			}
		}
	}
}

func TestTorusMidplaneID(t *testing.T) {
	mid, _ := Midplane(17, 1)
	id, ok := TorusMidplaneID(mid)
	if !ok || id != 35 {
		t.Errorf("midplane id = %d, %v", id, ok)
	}
	node, _ := Node(17, 1, 2, 3)
	if nid, ok := TorusMidplaneID(node); !ok || nid != 35 {
		t.Errorf("node-level id = %d, %v", nid, ok)
	}
	rack, _ := Rack(17)
	if rid, ok := TorusMidplaneID(rack); !ok || rid != 34 {
		t.Errorf("rack-level id = %d, %v", rid, ok)
	}
	if _, ok := TorusMidplaneID(System()); ok {
		t.Error("system location has a torus position")
	}
}

func TestTorusDistanceTableMatchesTorusDistance(t *testing.T) {
	table := TorusDistanceTable()
	for a := 0; a < TotalMidplanes; a++ {
		for b := 0; b < TotalMidplanes; b++ {
			want, err := TorusDistance(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if got := int(table[a][b]); got != want {
				t.Fatalf("table[%d][%d] = %d, TorusDistance %d", a, b, got, want)
			}
		}
	}
	if TorusDistanceTable() != table {
		t.Error("the table is rebuilt on every call")
	}
}
