// Package memo holds the one shape the lock-free publish slots of the
// data and serve planes take: a value computed by whoever needs it first
// and read without a lock ever after (dataset.Store's per-row records,
// the stream analyzer's per-generation snapshot, the frontend's merged
// snapshot).
package memo

import "sync/atomic"

// Slot is a publish-once-per-expected-value pointer cell. It can be read
// with Load and written only with CompareAndSwap: a plain store could
// replace a value readers already hold with an equal copy, and two racing
// writers would then hand out distinct objects for what every reader must
// agree is one. The zero Slot holds nil and is ready to use; a Slot must
// not be copied after first use.
type Slot[T any] struct {
	p atomic.Pointer[T]
}

// Load returns the published value, or nil when nothing has been.
func (s *Slot[T]) Load() *T { return s.p.Load() }

// CompareAndSwap publishes new if the slot still holds old and reports
// whether it did. A caller that loses re-reads the winner with Load.
func (s *Slot[T]) CompareAndSwap(old, new *T) bool { return s.p.CompareAndSwap(old, new) }
