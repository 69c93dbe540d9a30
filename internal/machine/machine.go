// Package machine models the physical topology of the IBM Blue Gene/Q
// "Mira" system at the Argonne Leadership Computing Facility.
//
// Mira consists of 48 racks arranged in 3 rows of 16 racks. Each rack holds
// two midplanes (M0, M1); each midplane holds 16 node boards (N00..N15);
// each node board carries 32 compute cards (J00..J31), one compute node per
// card. A node has 16 user cores (one 17th core is reserved for the OS), so
// the machine totals 48*2*512 = 49,152 nodes and 786,432 user cores.
//
// RAS events and scheduler blocks reference hardware through hierarchical
// location codes such as
//
//	R17          (rack)
//	R17-M0       (midplane)
//	R17-M0-N06   (node board)
//	R17-M0-N06-J11 (compute card / node)
//
// This package parses, formats, enumerates and relates such locations, and
// exposes the midplane-granular partition geometry used by the scheduler.
package machine

import (
	"fmt"
	"strconv"
	"strings"
)

// Machine geometry constants for Mira.
const (
	NumRacks         = 48                               // R00..R47
	MidplanesPerRack = 2                                // M0, M1
	NodeBoardsPerMid = 16                               // N00..N15
	NodesPerBoard    = 32                               // J00..J31
	NodesPerMidplane = NodeBoardsPerMid * NodesPerBoard // 512
	NodesPerRack     = MidplanesPerRack * NodesPerMidplane
	TotalMidplanes   = NumRacks * MidplanesPerRack // 96
	TotalNodes       = NumRacks * NodesPerRack     // 49,152
	CoresPerNode     = 16
	TotalCores       = TotalNodes * CoresPerNode // 786,432
	RackRows         = 3
	RacksPerRow      = 16
)

// Level identifies the depth of a hardware location in the Mira hierarchy.
type Level int

// Location levels, from coarsest to finest.
const (
	LevelSystem Level = iota + 1
	LevelRack
	LevelMidplane
	LevelNodeBoard
	LevelNode
)

// String returns the human-readable name of the level.
func (l Level) String() string {
	switch l {
	case LevelSystem:
		return "system"
	case LevelRack:
		return "rack"
	case LevelMidplane:
		return "midplane"
	case LevelNodeBoard:
		return "node-board"
	case LevelNode:
		return "node"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Location identifies a piece of Mira hardware at rack, midplane, node-board
// or node granularity. The zero value is the whole system.
//
// Fields below the location's Level are meaningless and must be zero; use
// the accessors and constructors to stay consistent.
type Location struct {
	level Level
	rack  int // 0..47
	mid   int // 0..1
	board int // 0..15
	node  int // 0..31
}

// System returns the whole-system location.
func System() Location { return Location{level: LevelSystem} }

// Rack returns the location of rack r (0..47).
func Rack(r int) (Location, error) {
	if r < 0 || r >= NumRacks {
		return Location{}, fmt.Errorf("machine: rack %d out of range [0,%d)", r, NumRacks)
	}
	return Location{level: LevelRack, rack: r}, nil
}

// Midplane returns the location of midplane m (0..1) of rack r.
func Midplane(r, m int) (Location, error) {
	loc, err := Rack(r)
	if err != nil {
		return Location{}, err
	}
	if m < 0 || m >= MidplanesPerRack {
		return Location{}, fmt.Errorf("machine: midplane %d out of range [0,%d)", m, MidplanesPerRack)
	}
	loc.level = LevelMidplane
	loc.mid = m
	return loc, nil
}

// NodeBoard returns the location of node board n (0..15) of midplane (r, m).
func NodeBoard(r, m, n int) (Location, error) {
	loc, err := Midplane(r, m)
	if err != nil {
		return Location{}, err
	}
	if n < 0 || n >= NodeBoardsPerMid {
		return Location{}, fmt.Errorf("machine: node board %d out of range [0,%d)", n, NodeBoardsPerMid)
	}
	loc.level = LevelNodeBoard
	loc.board = n
	return loc, nil
}

// Node returns the location of compute card j (0..31) on node board (r, m, n).
func Node(r, m, n, j int) (Location, error) {
	loc, err := NodeBoard(r, m, n)
	if err != nil {
		return Location{}, err
	}
	if j < 0 || j >= NodesPerBoard {
		return Location{}, fmt.Errorf("machine: node %d out of range [0,%d)", j, NodesPerBoard)
	}
	loc.level = LevelNode
	loc.node = j
	return loc, nil
}

// Level reports the granularity of the location.
func (l Location) Level() Level {
	if l.level == 0 {
		return LevelSystem
	}
	return l.level
}

// RackIndex returns the rack number (0..47). Valid for levels at or below
// rack granularity.
func (l Location) RackIndex() int { return l.rack }

// MidplaneOrdinal returns the midplane number within its rack (0 or 1).
func (l Location) MidplaneOrdinal() int { return l.mid }

// String formats the location as a Mira location code, e.g. "R17-M0-N06-J11".
// The system location formats as "MIR" (the machine prefix used in ALCF logs).
func (l Location) String() string {
	switch l.Level() {
	case LevelSystem:
		return "MIR"
	case LevelRack:
		return fmt.Sprintf("R%02d", l.rack)
	case LevelMidplane:
		return fmt.Sprintf("R%02d-M%d", l.rack, l.mid)
	case LevelNodeBoard:
		return fmt.Sprintf("R%02d-M%d-N%02d", l.rack, l.mid, l.board)
	default:
		return fmt.Sprintf("R%02d-M%d-N%02d-J%02d", l.rack, l.mid, l.board, l.node)
	}
}

// ParseLocation parses a Mira location code at any granularity.
//
// Accepted forms: "MIR", "Rxx", "Rxx-My", "Rxx-My-Nzz", "Rxx-My-Nzz-Jww".
func ParseLocation(s string) (Location, error) {
	if s == "" {
		return Location{}, fmt.Errorf("machine: empty location code")
	}
	if s == "MIR" {
		return System(), nil
	}
	parts := strings.Split(s, "-")
	if len(parts) > 4 {
		return Location{}, fmt.Errorf("machine: location %q has too many components", s)
	}
	r, err := parseComponent(parts[0], 'R', s)
	if err != nil {
		return Location{}, err
	}
	loc, err := Rack(r)
	if err != nil {
		return Location{}, fmt.Errorf("machine: location %q: %w", s, err)
	}
	if len(parts) == 1 {
		return loc, nil
	}
	m, err := parseComponent(parts[1], 'M', s)
	if err != nil {
		return Location{}, err
	}
	loc, err = Midplane(r, m)
	if err != nil {
		return Location{}, fmt.Errorf("machine: location %q: %w", s, err)
	}
	if len(parts) == 2 {
		return loc, nil
	}
	n, err := parseComponent(parts[2], 'N', s)
	if err != nil {
		return Location{}, err
	}
	loc, err = NodeBoard(r, m, n)
	if err != nil {
		return Location{}, fmt.Errorf("machine: location %q: %w", s, err)
	}
	if len(parts) == 3 {
		return loc, nil
	}
	j, err := parseComponent(parts[3], 'J', s)
	if err != nil {
		return Location{}, err
	}
	loc, err = Node(r, m, n, j)
	if err != nil {
		return Location{}, fmt.Errorf("machine: location %q: %w", s, err)
	}
	return loc, nil
}

func parseComponent(part string, prefix byte, whole string) (int, error) {
	if len(part) < 2 || part[0] != prefix {
		return 0, fmt.Errorf("machine: location %q: component %q must start with %q", whole, part, string(prefix))
	}
	v, err := strconv.Atoi(part[1:])
	if err != nil {
		return 0, fmt.Errorf("machine: location %q: component %q: %w", whole, part, err)
	}
	return v, nil
}

// Ancestor returns the location truncated to the given (coarser or equal)
// level. Requesting a level finer than l's is an error.
func (l Location) Ancestor(level Level) (Location, error) {
	if level > l.Level() {
		return Location{}, fmt.Errorf("machine: cannot refine %s (%s) to %s", l, l.Level(), level)
	}
	a := l
	a.level = level
	switch level {
	case LevelSystem:
		a = System()
	case LevelRack:
		a.mid, a.board, a.node = 0, 0, 0
	case LevelMidplane:
		a.board, a.node = 0, 0
	case LevelNodeBoard:
		a.node = 0
	}
	return a, nil
}

// MidplaneID returns the linear midplane index (0..95) of the location.
// Valid for locations at midplane granularity or finer.
func (l Location) MidplaneID() (int, error) {
	if l.Level() < LevelMidplane {
		return 0, fmt.Errorf("machine: %s is coarser than a midplane", l)
	}
	return l.rack*MidplanesPerRack + l.mid, nil
}

// MidplaneByID returns the midplane location with linear index id (0..95).
func MidplaneByID(id int) (Location, error) {
	if id < 0 || id >= TotalMidplanes {
		return Location{}, fmt.Errorf("machine: midplane id %d out of range [0,%d)", id, TotalMidplanes)
	}
	return Midplane(id/MidplanesPerRack, id%MidplanesPerRack)
}

// DenseCount returns the number of distinct locations at the level: 1 for
// the system, 48 racks, 96 midplanes, 1,536 node boards or 49,152 nodes.
func DenseCount(level Level) int {
	switch level {
	case LevelRack:
		return NumRacks
	case LevelMidplane:
		return TotalMidplanes
	case LevelNodeBoard:
		return TotalMidplanes * NodeBoardsPerMid
	case LevelNode:
		return TotalNodes
	default:
		return 1
	}
}

// DenseIndex returns the index in [0, DenseCount(level)) of the location's
// ancestor at the level, so per-location tables can be flat arrays instead
// of maps keyed by Location. Indexes are row-major over (rack, midplane,
// board, node): at rack level it is RackIndex, at midplane level
// MidplaneID. It reports false when the location is coarser than the level.
func (l Location) DenseIndex(level Level) (int, bool) {
	if level > l.Level() {
		return 0, false
	}
	id := 0
	if level >= LevelRack {
		id = l.rack
	}
	if level >= LevelMidplane {
		id = id*MidplanesPerRack + l.mid
	}
	if level >= LevelNodeBoard {
		id = id*NodeBoardsPerMid + l.board
	}
	if level >= LevelNode {
		id = id*NodesPerBoard + l.node
	}
	return id, true
}
