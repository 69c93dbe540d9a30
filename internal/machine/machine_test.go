package machine

import (
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if TotalNodes != 49152 {
		t.Errorf("TotalNodes = %d, want 49152", TotalNodes)
	}
	if TotalCores != 786432 {
		t.Errorf("TotalCores = %d, want 786432", TotalCores)
	}
	if TotalMidplanes != 96 {
		t.Errorf("TotalMidplanes = %d, want 96", TotalMidplanes)
	}
	if NodesPerMidplane != 512 {
		t.Errorf("NodesPerMidplane = %d, want 512", NodesPerMidplane)
	}
}

func TestLocationString(t *testing.T) {
	tests := []struct {
		name string
		loc  func() (Location, error)
		want string
	}{
		{"system", func() (Location, error) { return System(), nil }, "MIR"},
		{"rack", func() (Location, error) { return Rack(17) }, "R17"},
		{"midplane", func() (Location, error) { return Midplane(17, 0) }, "R17-M0"},
		{"board", func() (Location, error) { return NodeBoard(17, 0, 6) }, "R17-M0-N06"},
		{"node", func() (Location, error) { return Node(17, 0, 6, 11) }, "R17-M0-N06-J11"},
		{"rack0", func() (Location, error) { return Rack(0) }, "R00"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			loc, err := tt.loc()
			if err != nil {
				t.Fatalf("constructor: %v", err)
			}
			if got := loc.String(); got != tt.want {
				t.Errorf("String() = %q, want %q", got, tt.want)
			}
		})
	}
}

func TestParseLocationRoundTrip(t *testing.T) {
	codes := []string{"MIR", "R00", "R47", "R21-M1", "R00-M0-N15", "R47-M1-N00-J31"}
	for _, code := range codes {
		loc, err := ParseLocation(code)
		if err != nil {
			t.Fatalf("ParseLocation(%q): %v", code, err)
		}
		if got := loc.String(); got != code {
			t.Errorf("round trip %q -> %q", code, got)
		}
	}
}

func TestParseLocationErrors(t *testing.T) {
	bad := []string{
		"", "X17", "R48", "R-1", "R17-M2", "R17-M0-N16", "R17-M0-N00-J32",
		"R17-M0-N00-J00-K00", "17", "R17-N00", "Rxx",
	}
	for _, code := range bad {
		if _, err := ParseLocation(code); err == nil {
			t.Errorf("ParseLocation(%q) succeeded, want error", code)
		}
	}
}

func TestParseLocationPropertyRoundTrip(t *testing.T) {
	f := func(rr, mm, nn, jj uint8, level uint8) bool {
		r := int(rr) % NumRacks
		m := int(mm) % MidplanesPerRack
		n := int(nn) % NodeBoardsPerMid
		j := int(jj) % NodesPerBoard
		var loc Location
		switch level % 4 {
		case 0:
			loc, _ = Rack(r)
		case 1:
			loc, _ = Midplane(r, m)
		case 2:
			loc, _ = NodeBoard(r, m, n)
		default:
			loc, _ = Node(r, m, n, j)
		}
		back, err := ParseLocation(loc.String())
		return err == nil && back == loc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAncestor(t *testing.T) {
	node, _ := Node(17, 1, 6, 11)
	mid, err := node.Ancestor(LevelMidplane)
	if err != nil {
		t.Fatal(err)
	}
	if mid.String() != "R17-M1" {
		t.Errorf("Ancestor(midplane) = %s, want R17-M1", mid)
	}
	rack, err := node.Ancestor(LevelRack)
	if err != nil {
		t.Fatal(err)
	}
	if rack.String() != "R17" {
		t.Errorf("Ancestor(rack) = %s, want R17", rack)
	}
	if _, err := rack.Ancestor(LevelNode); err == nil {
		t.Error("refining rack to node should fail")
	}
	sys, err := node.Ancestor(LevelSystem)
	if err != nil || sys != System() {
		t.Errorf("Ancestor(system) = %v, %v", sys, err)
	}
}

func TestMidplaneIDRoundTrip(t *testing.T) {
	for id := 0; id < TotalMidplanes; id++ {
		loc, err := MidplaneByID(id)
		if err != nil {
			t.Fatalf("MidplaneByID(%d): %v", id, err)
		}
		back, err := loc.MidplaneID()
		if err != nil {
			t.Fatalf("MidplaneID(%s): %v", loc, err)
		}
		if back != id {
			t.Errorf("midplane id round trip %d -> %d", id, back)
		}
	}
	if _, err := MidplaneByID(TotalMidplanes); err == nil {
		t.Error("MidplaneByID out of range should fail")
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelSystem: "system", LevelRack: "rack", LevelMidplane: "midplane",
		LevelNodeBoard: "node-board", LevelNode: "node", Level(99): "Level(99)",
	} {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

// TestDenseIndexRoundTrip checks that, at every level, DenseIndex is a
// bijection between the level's locations and [0, DenseCount): every node
// maps to the index of its Ancestor at the level, distinct ancestors get
// distinct indexes, and every index is used.
func TestDenseIndexRoundTrip(t *testing.T) {
	levels := []Level{LevelSystem, LevelRack, LevelMidplane, LevelNodeBoard, LevelNode}
	for _, level := range levels {
		owner := make([]Location, DenseCount(level))
		seen := make([]bool, DenseCount(level))
		for r := 0; r < NumRacks; r++ {
			for m := 0; m < MidplanesPerRack; m++ {
				for n := 0; n < NodeBoardsPerMid; n++ {
					for j := 0; j < NodesPerBoard; j++ {
						loc, err := Node(r, m, n, j)
						if err != nil {
							t.Fatal(err)
						}
						anc, err := loc.Ancestor(level)
						if err != nil {
							t.Fatal(err)
						}
						id, ok := loc.DenseIndex(level)
						aid, aok := anc.DenseIndex(level)
						if !ok || !aok || id != aid {
							t.Fatalf("%v at %v: index %d/%v, ancestor %v index %d/%v", loc, level, id, ok, anc, aid, aok)
						}
						if id < 0 || id >= len(owner) {
							t.Fatalf("%v at %v: index %d outside [0,%d)", loc, level, id, len(owner))
						}
						if seen[id] && owner[id] != anc {
							t.Fatalf("%v: index %d shared by %v and %v", level, id, owner[id], anc)
						}
						owner[id], seen[id] = anc, true
					}
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("%v: index %d unused", level, id)
			}
		}
	}
	rack, err := mustMidplane(t, 7, 1).Ancestor(LevelRack)
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := rack.DenseIndex(LevelRack); !ok || id != 7 {
		t.Errorf("rack index %d/%v, want 7", id, ok)
	}
	if id, ok := mustMidplane(t, 7, 1).DenseIndex(LevelMidplane); !ok || id != 15 {
		t.Errorf("midplane index %d/%v, want MidplaneID 15", id, ok)
	}
	for _, coarse := range []Location{System(), rack, mustMidplane(t, 7, 1)} {
		if _, ok := coarse.DenseIndex(coarse.Level() + 1); ok {
			t.Errorf("%v has an index at the finer level %v", coarse, coarse.Level()+1)
		}
	}
}

// mustMidplane returns midplane Rr-Mm, failing the test on invalid input.
func mustMidplane(t *testing.T, r, m int) Location {
	t.Helper()
	loc, err := Midplane(r, m)
	if err != nil {
		t.Fatal(err)
	}
	return loc
}
