//go:build !unix

package dataset

import (
	"errors"
	"os"
)

// mmapRegion is the stub region for platforms without mmap support; the
// snapshot reader reads the file into the heap there.
type mmapRegion struct {
	data []byte
}

func mmapFile(_ *os.File, _ int64) (*mmapRegion, error) {
	return nil, errors.New("dataset: mmap unsupported on this platform")
}

func (m *mmapRegion) close() {}

func (m *mmapRegion) release() {}

func (m *mmapRegion) mapped() bool { return false }
