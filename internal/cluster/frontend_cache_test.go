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

// TestMarkDownIgnoresAStaleSession pins the rejoin race: an ingest chunk
// in flight while a shard leaves fails its send on the old session and
// reports it down after the shard has rejoined. That report names a
// session the frontend no longer holds, so the ring and the new session
// must be left alone; the same report about the current session removes
// the shard.
func TestMarkDownIgnoresAStaleSession(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l, err := StartLocal(ctx, 2, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f := l.Frontend
	session := func() *shardClient {
		f.mu.RLock()
		defer f.mu.RUnlock()
		return f.clients[1]
	}
	isClosed := func(c *shardClient) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.closed
	}

	old := session()
	if err := f.ShardJoin(ctx, 1); err != nil { // rejoin replaces the session
		t.Fatal(err)
	}
	fresh := session()
	if fresh == old || !isClosed(old) {
		t.Fatalf("rejoin: new session %p, old %p (closed=%v)", fresh, old, isClosed(old))
	}

	f.markDown(1, old)
	if session() != fresh || isClosed(fresh) || f.ring.Size() != 2 {
		t.Fatalf("stale report took the rejoined shard down: session %p (want %p, closed=%v), ring size %d",
			session(), fresh, isClosed(fresh), f.ring.Size())
	}
	f.markDown(1, nil) // a caller that found no session, before the rejoin
	if session() != fresh || f.ring.Size() != 2 {
		t.Fatal("a no-session report took the rejoined shard down")
	}
	if err := f.ShardLeave(ctx, 1); err != nil {
		t.Fatalf("leave after a stale report: %v", err)
	}
	if session() != nil || !isClosed(fresh) || f.ring.Size() != 1 {
		t.Fatalf("leave: session %p, closed=%v, ring size %d", session(), isClosed(fresh), f.ring.Size())
	}
}
