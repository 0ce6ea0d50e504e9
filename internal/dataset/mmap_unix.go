//go:build unix

package dataset

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
)

// mmapRegion owns one read-only file mapping. Columns that alias the
// mapping hold a pointer to the region (Columns.mmap), which keeps it
// reachable; a cleanup unmaps once nothing references it. release unmaps
// eagerly and is idempotent, so error paths and Store.Close can both call
// it.
type mmapRegion struct {
	data    []byte
	cleanup runtime.Cleanup
}

// mmapFile maps the first size bytes of f read-only and shared. The
// mapping is independent of the file descriptor's lifetime: closing f
// afterwards is safe.
func mmapFile(f *os.File, size int64) (*mmapRegion, error) {
	if size <= 0 || size != int64(int(size)) {
		return nil, fmt.Errorf("dataset: cannot mmap %d bytes", size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("dataset: mmap: %w", err)
	}
	m := &mmapRegion{data: data}
	m.cleanup = runtime.AddCleanup(m, munmap, data)
	return m, nil
}

func munmap(data []byte) { _ = syscall.Munmap(data) }

// release unmaps now. The cleanup is stopped first, so the range is not
// unmapped a second time — by then possibly another mapping's — when the
// region becomes unreachable.
func (m *mmapRegion) release() {
	if m.data != nil {
		m.cleanup.Stop()
		munmap(m.data)
		m.data = nil
	}
}

// mapped reports whether the region still holds a live mapping.
func (m *mmapRegion) mapped() bool { return m.data != nil }
