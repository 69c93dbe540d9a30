package machine

import "testing"

func TestLocationCodeRoundTrip(t *testing.T) {
	locs := []Location{System()}
	for _, mk := range []func() (Location, error){
		func() (Location, error) { return Rack(0) },
		func() (Location, error) { return Rack(NumRacks - 1) },
		func() (Location, error) { return Midplane(17, 1) },
		func() (Location, error) { return NodeBoard(47, 0, 15) },
		func() (Location, error) { return Node(3, 1, 6, 11) },
		func() (Location, error) { return Node(0, 0, 0, 0) },
		func() (Location, error) { return Node(47, 1, 15, 31) },
	} {
		loc, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc)
	}
	for _, loc := range locs {
		got, err := LocationFromCode(loc.Code())
		if err != nil {
			t.Fatalf("%s (code %#x): %v", loc, loc.Code(), err)
		}
		if got != loc {
			t.Fatalf("round trip of %s: got %s", loc, got)
		}
	}
}

func TestLocationCodeRoundTripExhaustive(t *testing.T) {
	// Every node-level location must survive the round trip.
	n := 0
	for r := 0; r < NumRacks; r++ {
		for m := 0; m < MidplanesPerRack; m++ {
			for b := 0; b < NodeBoardsPerMid; b++ {
				for j := 0; j < NodesPerBoard; j++ {
					loc, err := Node(r, m, b, j)
					if err != nil {
						t.Fatal(err)
					}
					got, err := LocationFromCode(loc.Code())
					if err != nil {
						t.Fatal(err)
					}
					if got != loc {
						t.Fatalf("round trip of %s gave %s", loc, got)
					}
					n++
				}
			}
		}
	}
	if n != TotalNodes {
		t.Errorf("enumerated %d nodes, want %d", n, TotalNodes)
	}
}

func TestLocationFromCodeRejectsBadCodes(t *testing.T) {
	rack0, _ := Rack(0)
	bad := []uint32{
		0,                          // level 0 does not exist
		uint32(6) << locLevelShift, // unknown level
		uint32(LevelRack)<<locLevelShift | 48<<locRackShift, // rack out of range
		rack0.Code() | 1, // non-canonical: node bits below rack level
		^uint32(0),       // garbage
	}
	for _, c := range bad {
		if _, err := LocationFromCode(c); err == nil {
			t.Errorf("code %#x: want error, got none", c)
		}
	}
}

func TestBlockCodeRoundTrip(t *testing.T) {
	blocks := []Block{
		{BaseMidplane: 0, Midplanes: 1},
		{BaseMidplane: 95, Midplanes: 1},
		{BaseMidplane: 4, Midplanes: 2},
		{BaseMidplane: 32, Midplanes: 64},
		{BaseMidplane: 0, Midplanes: TotalMidplanes},
	}
	for _, b := range blocks {
		got, err := BlockFromCode(b.Code())
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if got != b {
			t.Fatalf("round trip of %s: got %s", b.Name(), got.Name())
		}
	}
}

func TestBlockFromCodeRejectsBadCodes(t *testing.T) {
	bad := []uint32{
		0,         // zero midplanes
		3,         // non-power-of-two size
		95<<8 | 2, // runs past the last midplane
		1<<8 | 96, // full machine must start at 0
		1 << 16,   // out of range
	}
	for _, c := range bad {
		if _, err := BlockFromCode(c); err == nil {
			t.Errorf("code %#x: want error, got none", c)
		}
	}
}
