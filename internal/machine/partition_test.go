package machine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestValidBlockNodes(t *testing.T) {
	for _, n := range BlockSizes {
		if !ValidBlockNodes(n) {
			t.Errorf("ValidBlockNodes(%d) = false", n)
		}
	}
	for _, n := range []int{0, 1, 256, 513, 3072, 65536} {
		if ValidBlockNodes(n) {
			t.Errorf("ValidBlockNodes(%d) = true", n)
		}
	}
}

func TestBlockNameRoundTrip(t *testing.T) {
	blocks := []Block{
		{0, 1}, {95, 1}, {4, 4}, {32, 32}, {0, TotalMidplanes},
	}
	for _, b := range blocks {
		back, err := ParseBlock(b.Name())
		if err != nil {
			t.Fatalf("ParseBlock(%q): %v", b.Name(), err)
		}
		if back != b {
			t.Errorf("round trip %v -> %v", b, back)
		}
	}
}

func TestBlockValidate(t *testing.T) {
	good := []Block{{0, 1}, {2, 2}, {64, 32}, {0, 64}, {0, TotalMidplanes}}
	for _, b := range good {
		if err := b.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", b, err)
		}
	}
	// Unaligned but contiguous blocks are valid (fallback placements).
	if err := (Block{1, 2}).Validate(); err != nil {
		t.Errorf("unaligned contiguous block rejected: %v", err)
	}
	bad := []Block{
		{0, 3},              // not power of two
		{0, 0},              // empty
		{94, 4},             // out of range
		{1, TotalMidplanes}, // full machine must start at 0
		{0, -2},             // negative
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("Validate(%v) succeeded, want error", b)
		}
	}
}

func TestBlockContainsLocation(t *testing.T) {
	b := Block{BaseMidplane: 34, Midplanes: 2} // rack 17, both midplanes
	inNode, _ := Node(17, 0, 3, 5)
	inMid, _ := Midplane(17, 1)
	inRack, _ := Rack(17)
	outMid, _ := Midplane(18, 0)
	outRack, _ := Rack(20)

	if !b.ContainsLocation(inNode) || !b.ContainsLocation(inMid) || !b.ContainsLocation(inRack) {
		t.Error("block should contain locations inside rack 17")
	}
	if b.ContainsLocation(outMid) || b.ContainsLocation(outRack) {
		t.Error("block should not contain rack 18/20 locations")
	}
	if !b.ContainsLocation(System()) {
		t.Error("system location intersects every block")
	}

	// A rack partially covered still intersects.
	half := Block{BaseMidplane: 34, Midplanes: 1}
	if !half.ContainsLocation(inRack) {
		t.Error("half-rack block should intersect its rack")
	}
}

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator()
	b1, ok := a.Alloc(512)
	if !ok {
		t.Fatal("alloc 512 failed on empty machine")
	}
	if b1.Nodes() != 512 {
		t.Errorf("block nodes = %d", b1.Nodes())
	}
	b2, ok := a.Alloc(1024)
	if !ok {
		t.Fatal("alloc 1024 failed")
	}
	if overlaps(b1, b2) {
		t.Error("allocated blocks overlap")
	}
	if a.used != 3 {
		t.Errorf("used = %d, want 3", a.used)
	}
	if err := a.Free(b1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(b1); err == nil {
		t.Error("double free should fail")
	}
	if err := a.Free(b2); err != nil {
		t.Fatal(err)
	}
	if a.used != 0 {
		t.Errorf("used after frees = %d", a.used)
	}
}

func TestAllocatorFullMachine(t *testing.T) {
	a := NewAllocator()
	full, ok := a.Alloc(49152)
	if !ok {
		t.Fatal("full machine alloc failed")
	}
	if _, ok := a.Alloc(512); ok {
		t.Error("alloc on busy machine should fail")
	}
	if _, ok := a.Alloc(49152); ok {
		t.Error("full machine alloc on busy machine should fail")
	}
	if err := a.Free(full); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Alloc(49152); !ok {
		t.Error("full machine alloc on empty machine failed")
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := NewAllocator()
	var blocks []Block
	for {
		b, ok := a.Alloc(8192) // 16 midplanes
		if !ok {
			break
		}
		blocks = append(blocks, b)
	}
	if len(blocks) != 6 {
		t.Errorf("allocated %d 8192-node blocks, want 6", len(blocks))
	}
	if a.FreeMidplanes() != 0 {
		t.Errorf("free midplanes = %d, want 0", a.FreeMidplanes())
	}
	for _, b := range blocks {
		if err := a.Free(b); err != nil {
			t.Fatal(err)
		}
	}
}

// overlaps reports whether two blocks share any midplane.
func overlaps(a, b Block) bool {
	return a.BaseMidplane < b.BaseMidplane+b.Midplanes && b.BaseMidplane < a.BaseMidplane+a.Midplanes
}

// TestAllocatorNeverOverlapsProperty drives a random alloc/free workload and
// checks the invariant that live blocks never overlap and accounting stays
// exact.
func TestAllocatorNeverOverlapsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator()
		var live []Block
		sizes := []int{512, 1024, 2048, 4096, 8192}
		for step := 0; step < 200; step++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				n := sizes[rng.Intn(len(sizes))]
				b, ok := a.Alloc(n)
				if !ok {
					continue
				}
				for _, o := range live {
					if overlaps(b, o) {
						return false
					}
				}
				live = append(live, b)
			} else {
				i := rng.Intn(len(live))
				if err := a.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			want := 0
			for _, b := range live {
				want += b.Midplanes
			}
			if a.used != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// busyIDs returns the sorted ids of the allocator's busy midplanes.
func busyIDs(a *Allocator) []int {
	var out []int
	for id, v := range a.busy {
		if v {
			out = append(out, id)
		}
	}
	return out
}

// downMidplanes counts the midplanes out of service.
func downMidplanes(a *Allocator) int {
	n := 0
	for _, d := range a.down {
		if d > 0 {
			n++
		}
	}
	return n
}

func TestSnapshotMatchesUsage(t *testing.T) {
	a := NewAllocator()
	b, _ := a.Alloc(2048)
	snap := busyIDs(a)
	if len(snap) != b.Midplanes {
		t.Fatalf("snapshot size %d, want %d", len(snap), b.Midplanes)
	}
	for i, id := range snap {
		if id != b.BaseMidplane+i {
			t.Errorf("snapshot[%d] = %d, want %d", i, id, b.BaseMidplane+i)
		}
	}
}

func TestMarkDownUp(t *testing.T) {
	a := NewAllocator()
	if err := a.MarkDown(5); err != nil {
		t.Fatal(err)
	}
	if downMidplanes(a) != 1 {
		t.Errorf("down = %d", downMidplanes(a))
	}
	// Allocation must avoid the down midplane.
	for i := 0; i < 96; i++ {
		b, ok := a.Alloc(512)
		if !ok {
			break
		}
		if b.ContainsMidplane(5) {
			t.Fatal("allocated a down midplane")
		}
	}
	// 95 of 96 allocatable.
	if a.used != 95 {
		t.Errorf("used = %d, want 95", a.used)
	}
	if err := a.MarkUp(5); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Alloc(512); !ok {
		t.Error("midplane 5 not allocatable after MarkUp")
	}
}

func TestMarkDownErrors(t *testing.T) {
	a := NewAllocator()
	if err := a.MarkDown(-1); err == nil {
		t.Error("negative id accepted")
	}
	if err := a.MarkUp(3); err == nil {
		t.Error("MarkUp on up midplane accepted")
	}
	b, _ := a.Alloc(512)
	if err := a.MarkDown(b.BaseMidplane); err == nil {
		t.Error("MarkDown on busy midplane accepted")
	}
	if err := a.Free(b); err != nil {
		t.Fatal(err)
	}
	// Nested downs require matching ups.
	if err := a.MarkDown(7); err != nil {
		t.Fatal(err)
	}
	if err := a.MarkDown(7); err != nil {
		t.Fatal(err)
	}
	if err := a.MarkUp(7); err != nil {
		t.Fatal(err)
	}
	if downMidplanes(a) != 1 {
		t.Errorf("nested down released early: %d", downMidplanes(a))
	}
	if err := a.MarkUp(7); err != nil {
		t.Fatal(err)
	}
	if downMidplanes(a) != 0 {
		t.Errorf("down = %d after full release", downMidplanes(a))
	}
}

func TestDownBlocksUnalignedFallback(t *testing.T) {
	// Down midplanes must break contiguous runs in the fallback pass too.
	a := NewAllocator()
	// Mark every even-aligned base busy-ish by downing midplanes so that
	// only an unaligned run through a down midplane would fit — it must
	// not be used.
	for id := 0; id < TotalMidplanes; id += 4 {
		if err := a.MarkDown(id); err != nil {
			t.Fatal(err)
		}
	}
	// Largest contiguous free run is 3 midplanes: a 4-midplane (2048-node)
	// block must not fit anywhere.
	if _, ok := a.Alloc(2048); ok {
		t.Error("allocator found a 4-midplane run through down midplanes")
	}
	if _, ok := a.Alloc(1024); !ok {
		t.Error("2-midplane block should still fit")
	}
}
