package cluster

import (
	"encoding/json"
	"sync"
	"testing"

	"botscope/internal/dataset"
	"botscope/internal/stream"
	"botscope/internal/synth"
)

var (
	mergeOnce  sync.Once
	mergeStore *dataset.Store
	mergeWhole stream.Snapshot
	mergeSnaps []*ShardSnapshot
	mergeErr   error
)

// mergeFixture partitions one seeded workload across 4 shard partitions
// the way the frontend feeds them — each chunk's records to their owner,
// the chunk's length and horizon to every shard — and snapshots all of
// them, plus one partition over the whole feed: the per-target half of a
// single analyzer's snapshot.
func mergeFixture(t testing.TB) ([]*ShardSnapshot, stream.Snapshot) {
	mergeOnce.Do(func() {
		mergeStore, mergeErr = synth.GenerateStore(synth.Config{Seed: 17, Scale: 0.04})
		if mergeErr != nil {
			return
		}
		const nShards = 4
		ring := NewRing()
		shards := make([]*stream.Partition, nShards)
		for id := 0; id < nShards; id++ {
			ring.Add(id)
			shards[id] = stream.NewPartition()
		}
		whole := stream.NewPartition()
		attacks := mergeStore.Attacks()
		for from := 0; from < len(attacks); from += ingestChunk {
			chunk := attacks[from:min(from+ingestChunk, len(attacks))]
			for i, a := range chunk {
				seq := uint64(from + i + 1)
				if mergeErr = whole.Ingest(a, seq); mergeErr != nil {
					return
				}
				if mergeErr = shards[ring.Owner(a.TargetIP)].Ingest(a, seq); mergeErr != nil {
					return
				}
			}
			for _, p := range append(shards, whole) {
				p.Advance(len(chunk), chunk[len(chunk)-1].Start)
			}
		}
		mergeWhole = whole.Snapshot()
		for id, p := range shards {
			s := ShardSnapshot{ShardID: id, Applied: uint64(len(attacks)), Snap: p.Snapshot()}
			// Round-trip through the wire codec so the fixture covers
			// exactly what the frontend merges: decoded snapshots.
			dec, err := decodeMsg(wireSnapshot, encodeMsg(wireSnapshot, &s))
			if err != nil {
				mergeErr = err
				return
			}
			mergeSnaps = append(mergeSnaps, &dec)
		}
	})
	if mergeErr != nil {
		t.Fatal(mergeErr)
	}
	return mergeSnaps, mergeWhole
}

// asJSON renders a snapshot the way the serve layer would observe it —
// hidden merge bookkeeping (json:"-" fields) is excluded by design.
func asJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMergeSnapshotsDeterministic: merging 4 wire-decoded shard partials
// reproduces the per-target half of one partition over the whole feed
// exactly, and the merge is invariant under shard order.
func TestMergeSnapshotsDeterministic(t *testing.T) {
	snaps, whole := mergeFixture(t)
	want := asJSON(t, whole)

	merged := MergeSnapshots(snaps)
	if got := asJSON(t, merged); got != want {
		t.Errorf("merged snapshot diverges from one partition over the feed:\n got %.600s\nwant %.600s", got, want)
	}

	reversed := make([]*ShardSnapshot, len(snaps))
	for i, s := range snaps {
		reversed[len(snaps)-1-i] = s
	}
	if got := asJSON(t, MergeSnapshots(reversed)); got != want {
		t.Error("merge is sensitive to shard order")
	}

	// A nil entry (unreachable shard) degrades the data but must not
	// crash or corrupt the merge shape.
	partial := []*ShardSnapshot{snaps[0], nil, snaps[2], snaps[3]}
	p := MergeSnapshots(partial)
	if p.Ingested != whole.Ingested || !p.LastStart.Equal(whole.LastStart) {
		t.Errorf("partial merge covers %d records to %v, want %d to %v (every shard covers the stream)",
			p.Ingested, p.LastStart, whole.Ingested, whole.LastStart)
	}
}

func TestMergeSnapshotsEmpty(t *testing.T) {
	if got := MergeSnapshots(nil); got.Ingested != 0 {
		t.Errorf("empty merge = %+v", got)
	}
	if got := MergeSnapshots([]*ShardSnapshot{nil, nil}); got.Ingested != 0 {
		t.Errorf("all-nil merge = %+v", got)
	}
	// Shards that exist but saw no traffic merge to the empty snapshot.
	empty := []*ShardSnapshot{
		{ShardID: 0, Snap: stream.New().Snapshot()},
		{ShardID: 1, Snap: stream.New().Snapshot()},
	}
	want := asJSON(t, stream.New().Snapshot())
	if got := asJSON(t, MergeSnapshots(empty)); got != want {
		t.Errorf("idle-shard merge = %s, want %s", got, want)
	}
}

// BenchmarkMergeSnapshots measures the frontend's merge hot path: 4 shard
// partials over a synthetic workload, as exercised once per (ingest,
// membership) generation.
func BenchmarkMergeSnapshots(b *testing.B) {
	snaps, _ := mergeFixture(b)
	b.ReportAllocs()
	for b.Loop() {
		merged := MergeSnapshots(snaps)
		if merged.Ingested == 0 {
			b.Fatal("empty merge")
		}
	}
}
