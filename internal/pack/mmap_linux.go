//go:build linux

package pack

import (
	"os"
	"runtime"
	"syscall"

	"repro/internal/scan"
)

// mapping is a snapshot file mapped read-only, or read into the heap
// where it cannot be mapped.
type mapping struct {
	data   []byte
	mapped bool
}

// mapSnapshot maps the snapshot file read-only. The columns a load adopts
// are slices over the mapping, so nothing is copied, decoded or zeroed.
// MAP_POPULATE prefaults the file in one batch: a load reads every page
// of the sections it adopts (the events alone are most of the file), and
// without it every 4 KiB would cost a soft page fault mid-validation.
// Empty (or absurdly large) files and files that cannot be mapped fall
// back to a plain read, which yields the right errors downstream.
func mapSnapshot(path string) (*mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > 0 && int64(int(size)) == size {
		if data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_POPULATE); err == nil {
			mappedBytes.Add(size)
			return &mapping{data: data, mapped: true}, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &mapping{data: aligned(data)}, nil
}

// release unmaps a mapping no load adopted anything from (the load
// failed).
func (m *mapping) release() {
	if m.mapped {
		syscall.Munmap(m.data)
		mappedBytes.Add(-int64(len(m.data)))
	}
}

// ownBy makes owner, the event view a load returns, the mapping's owner:
// once the owner is garbage, a finalizer retires the mapping. Retiring
// releases the pages (MADV_DONTNEED) but never unmaps: a column slice
// that outlives its owner reads the same bytes again, faulted back in
// from the page cache, instead of faulting on unmapped memory.
func (m *mapping) ownBy(owner *scan.EventView) {
	if m.mapped {
		runtime.SetFinalizer(owner, func(*scan.EventView) { m.retire() })
	}
}

// retire releases the mapping's pages and stops counting its bytes.
func (m *mapping) retire() {
	syscall.Madvise(m.data, syscall.MADV_DONTNEED)
	mappedBytes.Add(-int64(len(m.data)))
}
