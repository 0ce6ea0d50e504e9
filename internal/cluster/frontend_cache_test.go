package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"botscope/internal/stream"
)

// TestLiveSnapshotCacheFastPath pins the merged-snapshot cache contract:
// a cached value for the current generation is served without touching
// the (empty) membership, and a generation bump invalidates it.
func TestLiveSnapshotCacheFastPath(t *testing.T) {
	f := NewFrontend(time.Second, time.Second)
	defer f.Close()

	want := stream.Snapshot{Ingested: 42}
	if !f.cache.CompareAndSwap(nil, &mergedSnap{gen: f.gen.Load(), snap: want}) {
		t.Fatal("seeding a cold cache failed")
	}

	got, degraded, err := f.LiveSnapshot(context.Background())
	if err != nil {
		t.Fatalf("LiveSnapshot with warm cache: %v", err)
	}
	if got.Ingested != want.Ingested {
		t.Fatalf("cached snapshot: Ingested = %d, want %d", got.Ingested, want.Ingested)
	}
	if len(degraded) != 0 {
		t.Fatalf("cached snapshot reported degraded shards %v", degraded)
	}

	// Bumping the generation invalidates the cache; with no shards the
	// rebuild must fail rather than serve the stale snapshot.
	f.gen.Add(1)
	if _, _, err := f.LiveSnapshot(context.Background()); !errors.Is(err, ErrNoShards) {
		t.Fatalf("stale cache served after generation bump: err = %v, want ErrNoShards", err)
	}
}

// TestSnapshotCachePublishDiscipline pins the CompareAndSwap publish on
// the memo slot: a rebuild that loaded prev before a newer snapshot was
// published must lose the race, never clobber the newer value. The
// production path in LiveSnapshot follows exactly this sequence, and a
// plain Store does not compile: memo.Slot has no such method.
func TestSnapshotCachePublishDiscipline(t *testing.T) {
	f := NewFrontend(time.Second, time.Second)
	defer f.Close()

	prev := f.cache.Load() // what a stale rebuild observed (nil: cold cache)
	newer := &mergedSnap{gen: 2, snap: stream.Snapshot{Ingested: 99}}
	if !f.cache.CompareAndSwap(prev, newer) {
		t.Fatal("publishing the newer snapshot failed on a cold cache")
	}

	stale := &mergedSnap{gen: 1, snap: stream.Snapshot{Ingested: 7}}
	if f.cache.CompareAndSwap(prev, stale) {
		t.Fatal("stale rebuild clobbered a newer published snapshot")
	}
	if got := f.cache.Load(); got != newer {
		t.Fatalf("cache holds %+v, want the newer snapshot", got)
	}
}
