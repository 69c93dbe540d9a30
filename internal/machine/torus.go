package machine

import (
	"fmt"
	"sync"
)

// Mira's compute fabric is a 5D torus of 8×12×16×16×2 nodes (dimensions
// A–E). A midplane spans 4×4×4×4×2 nodes, so at midplane granularity the
// torus is 2×3×4×4×1 midplanes. Spatial-correlation analyses use this
// geometry: incidents that propagate along cables and link chips hit
// midplanes at torus distance 1.

// TorusDims is the midplane-granular torus shape (A, B, C, D, E).
var TorusDims = [5]int{2, 3, 4, 4, 1}

// TorusCoord is a midplane position on the 5D torus.
type TorusCoord [5]int

// MidplaneTorusCoord maps a linear midplane ID (0..95) to its torus
// coordinate, row-major in (A, B, C, D, E).
func MidplaneTorusCoord(id int) (TorusCoord, error) {
	if id < 0 || id >= TotalMidplanes {
		return TorusCoord{}, fmt.Errorf("machine: midplane id %d out of range [0,%d)", id, TotalMidplanes)
	}
	var c TorusCoord
	rem := id
	for dim := 4; dim >= 0; dim-- {
		c[dim] = rem % TorusDims[dim]
		rem /= TorusDims[dim]
	}
	return c, nil
}

// MidplaneIDFromTorus is the inverse of MidplaneTorusCoord.
func MidplaneIDFromTorus(c TorusCoord) (int, error) {
	id := 0
	for dim := 0; dim < 5; dim++ {
		if c[dim] < 0 || c[dim] >= TorusDims[dim] {
			return 0, fmt.Errorf("machine: torus coord %v out of range in dim %d", c, dim)
		}
		id = id*TorusDims[dim] + c[dim]
	}
	return id, nil
}

// TorusDistance returns the wraparound Manhattan (hop) distance between two
// midplanes on the 5D torus.
func TorusDistance(a, b int) (int, error) {
	ca, err := MidplaneTorusCoord(a)
	if err != nil {
		return 0, err
	}
	cb, err := MidplaneTorusCoord(b)
	if err != nil {
		return 0, err
	}
	total := 0
	for dim := 0; dim < 5; dim++ {
		d := ca[dim] - cb[dim]
		if d < 0 {
			d = -d
		}
		if wrap := TorusDims[dim] - d; wrap < d {
			d = wrap
		}
		total += d
	}
	return total, nil
}

// TorusNeighbors returns the midplane IDs at torus distance exactly 1 from
// the given midplane (4–8 neighbors depending on degenerate dimensions).
func TorusNeighbors(id int) ([]int, error) {
	c, err := MidplaneTorusCoord(id)
	if err != nil {
		return nil, err
	}
	seen := map[int]bool{id: true}
	var out []int
	for dim := 0; dim < 5; dim++ {
		if TorusDims[dim] < 2 {
			continue // degenerate dimension has no distinct neighbor
		}
		for _, step := range []int{-1, 1} {
			n := c
			n[dim] = ((c[dim]+step)%TorusDims[dim] + TorusDims[dim]) % TorusDims[dim]
			nid, err := MidplaneIDFromTorus(n)
			if err != nil {
				return nil, err
			}
			if !seen[nid] {
				seen[nid] = true
				out = append(out, nid)
			}
		}
	}
	return out, nil
}

// TorusMidplaneID returns the linear midplane ID a location maps to for
// torus-distance purposes: its own midplane when at midplane granularity or
// finer, the rack's first midplane for rack-level locations. System-level
// locations have no torus position.
func TorusMidplaneID(loc Location) (int, bool) {
	switch loc.Level() {
	case LevelSystem:
		return 0, false
	case LevelRack:
		return loc.RackIndex() * MidplanesPerRack, true
	default:
		id, err := loc.MidplaneID()
		if err != nil {
			return 0, false
		}
		return id, true
	}
}

// torusDistances is the TorusDistance of every midplane pair, filled once
// by torusDistancesOnce. It is a package array, not a heap object.
var (
	torusDistances     [TotalMidplanes][TotalMidplanes]uint8
	torusDistancesOnce sync.Once
)

// TorusDistanceTable returns the torus distance between every pair of
// linear midplane ids: entry [a][b] equals TorusDistance(a, b). The table
// is built on first use and shared; callers must not modify it. Pairwise
// analyses index it instead of recomputing both torus coordinates per
// pair.
func TorusDistanceTable() *[TotalMidplanes][TotalMidplanes]uint8 {
	torusDistancesOnce.Do(func() {
		for a := range torusDistances {
			for b := range torusDistances[a] {
				d, err := TorusDistance(a, b)
				if err != nil {
					panic(err) // unreachable: a and b are in range
				}
				torusDistances[a][b] = uint8(d)
			}
		}
	})
	return &torusDistances
}
