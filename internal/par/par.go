// Package par provides the bounded-parallelism primitives behind the
// sharded analysis kernels and the parallel workload generator.
//
// The pool is runtime.GOMAXPROCS(0) wide, read at each call; there is no
// other setting. Every helper preserves determinism by construction: work
// is addressed by index, results are written into index-addressed slots,
// and callers merge shards in canonical (index) order. The only thing the
// pool width may change is wall-clock time — never output bytes. A pool
// of one (GOMAXPROCS=1, or n <= 1) runs inline on the calling goroutine,
// so single-core environments pay no scheduling overhead.
//
// The pool is for CPU work. A fan-out that waits on peers (network calls)
// is sized by its peers, not by the core count, and does not belong here.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Map computes out[i] = f(i) for i in [0, n) on at most GOMAXPROCS
// goroutines and returns the results in index order. f must be safe for
// concurrent invocation on distinct indexes.
func Map[T any](n int, f func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = f(i)
		}
		return out
	}
	var (
		next int64 = -1
		wg   sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				out[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// ChunkMap splits [0, n) into contiguous chunks of roughly equal size —
// one per worker, boundaries independent of scheduling — and computes
// out[c] = f(lo, hi) for each chunk [lo, hi). Use it for reduction-style
// scans (counting, summing) where per-index goroutines would cost more
// than the work itself; merge the per-chunk partials in slice order.
func ChunkMap[T any](n int, f func(lo, hi int) T) []T {
	if n <= 0 {
		return nil
	}
	bounds := chunkBounds(n, runtime.GOMAXPROCS(0))
	return Map(len(bounds), func(c int) T {
		return f(bounds[c].lo, bounds[c].hi)
	})
}

type span struct{ lo, hi int }

// chunkBounds cuts [0, n) into chunks contiguous, non-empty chunks. The
// boundaries depend only on n and chunks, never on scheduling.
func chunkBounds(n, chunks int) []span {
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([]span, 0, chunks)
	size := n / chunks
	rem := n % chunks
	lo := 0
	for c := 0; c < chunks; c++ {
		hi := lo + size
		if c < rem {
			hi++
		}
		out = append(out, span{lo: lo, hi: hi})
		lo = hi
	}
	return out
}
