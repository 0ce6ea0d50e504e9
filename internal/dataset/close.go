package dataset

import "errors"

// ErrStoreClosed is returned by operations on a store whose mapping was
// released with Close.
var ErrStoreClosed = errors.New("dataset: store is closed")

// closing is the bit Close adds to Store.holds; the bits below it count
// the outstanding holds.
const closing = 1 << 62

// Hold pins the store's columns for the caller. While a hold is
// outstanding, Close waits: every view derived from the store — column
// slices, cursors, row spans, derived products that alias the columns —
// is valid from Hold until release is called, and the hold is what
// enforces it. ok is false (and release nil) once Close has begun; the
// caller reports ErrStoreClosed instead of reading.
//
// Holds nest: a caller already holding the store may take another hold
// (an experiment runner inside an HTTP handler does). Each one is an
// atomic add, so the hot loops behind it carry no check.
func (s *Store) Hold() (release func(), ok bool) {
	if s.holds.Add(1)&closing != 0 {
		s.unhold()
		return nil, false
	}
	return s.unhold, true
}

// unhold drops one hold; the last one out after Close has begun wakes
// Close.
func (s *Store) unhold() {
	if s.holds.Add(-1) == closing {
		select {
		case s.drained <- struct{}{}:
		default: // Close was already woken; a refused Hold passed through after it
		}
	}
}

// Close releases the store's memory-mapped snapshot region, if any,
// deterministically instead of waiting for the region's cleanup. It
// refuses new holds at once, waits until every outstanding hold is
// released, and then unmaps. It is idempotent and safe on stores that
// were never mapped (NewStore stores, heap-decoded snapshots), where it
// only refuses later holds.
func (s *Store) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.drained = make(chan struct{}, 1) // published to unhold by the add below
	if s.holds.Add(closing) != closing {
		<-s.drained
	}
	if s.cols.mmap != nil {
		s.cols.mmap.release()
	}
	return nil
}
