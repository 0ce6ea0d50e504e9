package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs restores GOMAXPROCS when the test ends; the test sets it freely.
func setProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestMapOrdered(t *testing.T) {
	setProcs(t)
	for _, procs := range []int{1, 2, 7, 64} {
		runtime.GOMAXPROCS(procs)
		out := Map(100, func(i int) int { return i * i })
		if len(out) != 100 {
			t.Fatalf("GOMAXPROCS=%d: len = %d, want 100", procs, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("GOMAXPROCS=%d: out[%d] = %d, want %d", procs, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if out := Map(0, func(i int) int { return i }); out != nil {
		t.Fatalf("Map over empty range = %v, want nil", out)
	}
	if out := ChunkMap(0, func(lo, hi int) int { return hi - lo }); out != nil {
		t.Fatalf("ChunkMap over empty range = %v, want nil", out)
	}
}

// TestMapEveryIndexOnce runs under -race and checks each index is visited
// exactly once on an eight-wide pool.
func TestMapEveryIndexOnce(t *testing.T) {
	setProcs(t)
	runtime.GOMAXPROCS(8)
	const n = 10000
	var visits [n]int32
	Map(n, func(i int) struct{} {
		atomic.AddInt32(&visits[i], 1)
		return struct{}{}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestChunkMapCoversRange(t *testing.T) {
	setProcs(t)
	for _, tc := range []struct{ n, procs int }{
		{1, 1}, {1, 8}, {5, 2}, {10, 3}, {100, 7}, {100, 200},
	} {
		runtime.GOMAXPROCS(tc.procs)
		sum := 0
		for _, part := range ChunkMap(tc.n, func(lo, hi int) int {
			if lo >= hi {
				t.Fatalf("n=%d GOMAXPROCS=%d: empty chunk [%d,%d)", tc.n, tc.procs, lo, hi)
			}
			s := 0
			for i := lo; i < hi; i++ {
				s += i
			}
			return s
		}) {
			sum += part
		}
		want := tc.n * (tc.n - 1) / 2
		if sum != want {
			t.Fatalf("n=%d GOMAXPROCS=%d: chunk sum = %d, want %d", tc.n, tc.procs, sum, want)
		}
	}
}

func TestChunkBoundsDeterministic(t *testing.T) {
	a := chunkBounds(1000, 7)
	b := chunkBounds(1000, 7)
	if len(a) != len(b) {
		t.Fatal("nondeterministic chunk count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	// Contiguity and full coverage.
	lo := 0
	for i, s := range a {
		if s.lo != lo {
			t.Fatalf("chunk %d starts at %d, want %d", i, s.lo, lo)
		}
		lo = s.hi
	}
	if lo != 1000 {
		t.Fatalf("chunks end at %d, want 1000", lo)
	}
}

// TestMapBoundedByGOMAXPROCS pins the one sizing rule: the pool is
// GOMAXPROCS wide, read at each call, so no more calls of f are in flight
// at once than GOMAXPROCS was when Map began.
func TestMapBoundedByGOMAXPROCS(t *testing.T) {
	setProcs(t)
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		var inFlight, peak atomic.Int32
		Map(64, func(i int) struct{} {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
			return struct{}{}
		})
		if got := int(peak.Load()); got > procs {
			t.Fatalf("GOMAXPROCS=%d: %d calls in flight at once", procs, got)
		}
	}
}
