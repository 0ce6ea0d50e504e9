package memo

import (
	"iter"
	"slices"
)

// View is a read-only window on a slice a producer shares with every
// caller: it can be counted, read by index, iterated and copied out, but
// nothing reaches the slice itself, so no caller can write, append to,
// clear or reorder what the others read. The zero View is empty.
type View[T any] struct {
	s []T
}

// ViewOf wraps s. The producer keeps the only writable reference, and s
// must not change once the View is handed out.
func ViewOf[T any](s []T) View[T] { return View[T]{s} }

// Len returns the number of elements.
func (v View[T]) Len() int { return len(v.s) }

// At returns element i; it panics when i is out of range.
func (v View[T]) At(i int) T { return v.s[i] }

// All yields each index with its element, in order.
func (v View[T]) All() iter.Seq2[int, T] { return slices.All(v.s) }

// Clone returns a copy the caller owns (nil when the View wraps nil, as
// slices.Clone does).
func (v View[T]) Clone() []T { return slices.Clone(v.s) }
