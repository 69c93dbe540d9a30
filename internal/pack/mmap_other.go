//go:build !linux

package pack

import (
	"os"

	"repro/internal/scan"
)

// mapping is a snapshot file read into an aligned heap buffer: builds
// other than linux do not map snapshots.
type mapping struct {
	data []byte
}

// mapSnapshot reads the whole snapshot into an 8-aligned buffer, so its
// columns are adopted in place as from a mapping.
func mapSnapshot(path string) (*mapping, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &mapping{data: aligned(data)}, nil
}

// release and ownBy have nothing to do for a heap buffer: the garbage
// collector keeps it alive through the adopted columns.
func (m *mapping) release() {}

func (m *mapping) ownBy(*scan.EventView) {}
