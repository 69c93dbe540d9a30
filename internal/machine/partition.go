package machine

import (
	"fmt"
)

// Blue Gene/Q jobs run on *blocks* (partitions): contiguous groups of
// midplanes wired into a torus. On Mira the schedulable block sizes are
// powers of two in units of 512 nodes (one midplane), from 512 up to the
// full 49,152-node machine.
//
// We model the allocatable geometry as contiguous runs over the 96
// midplanes: a block of k midplanes (k a power of two, k ≤ 64; plus the
// special 96-midplane full machine) occupies midplanes [base, base+k).
// The allocator prefers k-aligned bases (buddy-style, matching the fixed
// wiring of small BG/Q blocks) and falls back to any contiguous run, which
// models the multiple valid torus shapes larger Mira blocks could take.
// This captures the property the failure analysis needs: blocks are
// spatially contiguous, so localized RAS bursts intersect few blocks.

// BlockSizes lists the schedulable block sizes on Mira, in nodes.
var BlockSizes = []int{512, 1024, 2048, 4096, 8192, 16384, 32768, 49152}

// ValidBlockNodes reports whether n is a schedulable block size in nodes.
func ValidBlockNodes(n int) bool {
	for _, s := range BlockSizes {
		if s == n {
			return true
		}
	}
	return false
}

// MidplanesForNodes returns the number of midplanes a block of n nodes
// occupies.
func MidplanesForNodes(n int) (int, error) {
	if !ValidBlockNodes(n) {
		return 0, fmt.Errorf("machine: %d nodes is not a schedulable block size", n)
	}
	return n / NodesPerMidplane, nil
}

// Block is a contiguous allocation of midplanes hosting one job task.
type Block struct {
	BaseMidplane int // linear midplane ID of the first midplane
	Midplanes    int // number of midplanes (1,2,4,...,64, or 96)
}

// Nodes returns the block's size in compute nodes.
func (b Block) Nodes() int { return b.Midplanes * NodesPerMidplane }

// Name returns the ALCF-style block name, e.g. "MIR-00800-3BFF1-512".
// We use a simplified readable form: "B<base>-<midplanes>".
func (b Block) Name() string { return fmt.Sprintf("B%02d-%02d", b.BaseMidplane, b.Midplanes) }

// ParseBlock parses a block name produced by Name.
func ParseBlock(s string) (Block, error) {
	var base, mids int
	if _, err := fmt.Sscanf(s, "B%d-%d", &base, &mids); err != nil {
		return Block{}, fmt.Errorf("machine: bad block name %q: %w", s, err)
	}
	b := Block{BaseMidplane: base, Midplanes: mids}
	if err := b.Validate(); err != nil {
		return Block{}, err
	}
	return b, nil
}

// Validate checks block geometry: power-of-two midplane count (or the full
// machine), contiguous and in range. Bases need not be size-aligned: the
// allocator prefers aligned placements but may fall back to any contiguous
// run (see the package comment).
func (b Block) Validate() error {
	if b.Midplanes == TotalMidplanes {
		if b.BaseMidplane != 0 {
			return fmt.Errorf("machine: full-machine block must start at midplane 0, got %d", b.BaseMidplane)
		}
		return nil
	}
	if b.Midplanes <= 0 || b.Midplanes > 64 || b.Midplanes&(b.Midplanes-1) != 0 {
		return fmt.Errorf("machine: block of %d midplanes is not schedulable", b.Midplanes)
	}
	if b.BaseMidplane < 0 || b.BaseMidplane+b.Midplanes > TotalMidplanes {
		return fmt.Errorf("machine: block [%d,%d) out of range", b.BaseMidplane, b.BaseMidplane+b.Midplanes)
	}
	return nil
}

// ContainsMidplane reports whether midplane id (linear) lies in the block.
func (b Block) ContainsMidplane(id int) bool {
	return id >= b.BaseMidplane && id < b.BaseMidplane+b.Midplanes
}

// ContainsLocation reports whether the hardware location intersects the
// block. Locations coarser than a midplane intersect if any of their
// midplanes do.
func (b Block) ContainsLocation(loc Location) bool {
	switch loc.Level() {
	case LevelSystem:
		return true
	case LevelRack:
		for m := 0; m < MidplanesPerRack; m++ {
			if b.ContainsMidplane(loc.rack*MidplanesPerRack + m) {
				return true
			}
		}
		return false
	default:
		id, err := loc.MidplaneID()
		if err != nil {
			return false
		}
		return b.ContainsMidplane(id)
	}
}

// MidplaneIDs returns the linear midplane IDs covered by the block.
func (b Block) MidplaneIDs() []int {
	out := make([]int, b.Midplanes)
	for i := range out {
		out[i] = b.BaseMidplane + i
	}
	return out
}

// Allocator tracks which midplanes are in use and hands out aligned
// contiguous blocks, buddy-system style. It is not safe for concurrent use;
// the scheduler serializes access.
type Allocator struct {
	busy [TotalMidplanes]bool
	// down counts overlapping out-of-service reservations (repairs) per
	// midplane; a midplane is allocatable only when neither busy nor down.
	down [TotalMidplanes]int
	used int
}

// NewAllocator returns an allocator with the whole machine free.
func NewAllocator() *Allocator { return &Allocator{} }

// FreeMidplanes returns the number of midplanes currently unallocated.
func (a *Allocator) FreeMidplanes() int { return TotalMidplanes - a.used }

// Alloc finds and reserves a free block of n nodes. It first scans
// size-aligned candidate bases in ascending order (buddy-style first fit,
// which keeps allocations packed toward low midplane IDs), then falls back
// to any contiguous free run. Returns false if no contiguous free run of
// the needed length exists.
func (a *Allocator) Alloc(n int) (Block, bool) {
	base, mids, ok := a.find(n)
	if !ok {
		return Block{}, false
	}
	b := Block{BaseMidplane: base, Midplanes: mids}
	a.reserve(b)
	return b, true
}

// find locates the first-fit base for a block of n nodes.
func (a *Allocator) find(n int) (base, mids int, ok bool) {
	mids, err := MidplanesForNodes(n)
	if err != nil {
		return 0, 0, false
	}
	if mids == TotalMidplanes || mids > 64 {
		if a.used != 0 {
			return 0, 0, false
		}
		return 0, TotalMidplanes, true
	}
	// Pass 1: aligned bases.
	for b := 0; b+mids <= TotalMidplanes; b += mids {
		if a.rangeFree(b, mids) {
			return b, mids, true
		}
	}
	// Pass 2: any contiguous run.
	run := 0
	for i := 0; i < TotalMidplanes; i++ {
		if a.busy[i] || a.down[i] > 0 {
			run = 0
			continue
		}
		run++
		if run == mids {
			return i - mids + 1, mids, true
		}
	}
	return 0, 0, false
}

// Free releases a previously allocated block. Freeing midplanes that are not
// allocated is an error (it indicates scheduler corruption).
func (a *Allocator) Free(b Block) error {
	for _, id := range b.MidplaneIDs() {
		if !a.busy[id] {
			return fmt.Errorf("machine: double free of midplane %d in block %s", id, b.Name())
		}
	}
	for _, id := range b.MidplaneIDs() {
		a.busy[id] = false
	}
	a.used -= b.Midplanes
	return nil
}

func (a *Allocator) rangeFree(base, mids int) bool {
	for i := base; i < base+mids; i++ {
		if a.busy[i] || a.down[i] > 0 {
			return false
		}
	}
	return true
}

// MarkDown takes a midplane out of service (repair/service action). Down
// states nest: overlapping repairs each require their own MarkUp. Marking
// a busy midplane is an error — drain it first.
func (a *Allocator) MarkDown(id int) error {
	if id < 0 || id >= TotalMidplanes {
		return fmt.Errorf("machine: midplane id %d out of range", id)
	}
	if a.busy[id] {
		return fmt.Errorf("machine: midplane %d is busy; cannot mark down", id)
	}
	a.down[id]++
	return nil
}

// MarkUp returns a midplane to service, undoing one MarkDown.
func (a *Allocator) MarkUp(id int) error {
	if id < 0 || id >= TotalMidplanes {
		return fmt.Errorf("machine: midplane id %d out of range", id)
	}
	if a.down[id] == 0 {
		return fmt.Errorf("machine: midplane %d is not down", id)
	}
	a.down[id]--
	return nil
}

func (a *Allocator) reserve(b Block) {
	for _, id := range b.MidplaneIDs() {
		a.busy[id] = true
	}
	a.used += b.Midplanes
}
