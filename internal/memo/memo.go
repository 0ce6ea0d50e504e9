// Package memo holds the two shapes a value computed by whoever needs it
// first and read without a lock ever after takes, and the read-only face
// a shared slice is handed out through. Slot is the lock-free publish
// cell that may be republished (the stream analyzer's per-generation
// snapshot, the frontend's merged snapshot); Lazy is the build-once
// holder of every per-store derived product (dataset's indexes and
// records, core's per-family dispersion series, the workload's §V event
// lists); View is how a product's slice leaves its producer — Len, At,
// All and Clone, and nothing that writes.
package memo

import (
	"sync"
	"sync/atomic"
)

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

// Lazy is a derived product built by whoever asks first and shared by
// everyone after: Get runs build at most once, concurrent callers wait
// for it, and every caller gets the one value it returned — so a slice it
// holds leaves the producer as a View. The
// zero Lazy is empty and ready to use; a Lazy must not be copied after
// first use.
type Lazy[T any] struct {
	// done is 1 once v is set: the one load of Get's inlined fast path. A
	// plain word read and written through sync/atomic, not an atomic.Bool,
	// because Filled has to set it in a composite literal.
	done uint32
	once sync.Once
	v    T
}

// Filled returns a Lazy that already holds v: its Get never calls build.
func Filled[T any](v T) Lazy[T] { return Lazy[T]{done: 1, v: v} }

// Get returns the value, calling build to make it if nobody has. Passing
// a method value keeps the call allocation-free: build does not escape.
func (l *Lazy[T]) Get(build func() T) T {
	if atomic.LoadUint32(&l.done) != 0 {
		return l.v
	}
	return l.fill(build)
}

// fill is Get's slow path, kept out of line so Get inlines into the
// per-row accessors that call it.
func (l *Lazy[T]) fill(build func() T) T {
	l.once.Do(func() {
		l.v = build()
		atomic.StoreUint32(&l.done, 1)
	})
	return l.v
}
