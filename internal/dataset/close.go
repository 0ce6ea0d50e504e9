package dataset

import "errors"

// ErrStoreClosed is returned by operations on a store whose mapping was
// released with Close.
var ErrStoreClosed = errors.New("dataset: store is closed")

// Close releases the store's memory-mapped snapshot region, if any,
// deterministically instead of waiting for the finalizer. It is
// idempotent and safe to call on stores that were never mapped (NewStore
// stores, heap-decoded snapshots), where it only marks the store closed.
//
// A mmap-scoped value derived from the store — column views, cursors,
// row spans, anything handed out by a //botscope:mmap producer — is valid
// until Close, not for as long as the store is reachable: after it, the
// bytes such a value aliases are gone. Operations that would re-read the
// columns through the public API report ErrStoreClosed.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.cols.mmap != nil {
		s.cols.mmap.release()
	}
	return nil
}

// Closed reports whether Close has been called on this store.
func (s *Store) Closed() bool { return s.closed.Load() }
