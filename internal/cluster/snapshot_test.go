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
	mergeOnce   sync.Once
	mergeStore  *dataset.Store
	mergeSingle stream.Snapshot
	mergeSnaps  []*ShardSnapshot
	mergeErr    error
)

// mergeFixture partitions one seeded workload across 4 shard analyzers the
// way the frontend would (owner gets the record, everyone else the tick)
// and snapshots all of them, plus the single-analyzer reference.
func mergeFixture(t testing.TB) ([]*ShardSnapshot, stream.Snapshot) {
	mergeOnce.Do(func() {
		mergeStore, mergeErr = synth.GenerateStore(synth.Config{Seed: 17, Scale: 0.04})
		if mergeErr != nil {
			return
		}
		const nShards = 4
		ring := NewRing()
		shards := make([]*stream.Analyzer, nShards)
		for id := 0; id < nShards; id++ {
			ring.Add(id)
			shards[id] = stream.New()
		}
		single := stream.New()
		seq := uint64(0)
		for _, a := range mergeStore.Attacks() {
			if mergeErr = single.Ingest(a); mergeErr != nil {
				return
			}
			seq++
			owner := ring.Owner(a.TargetIP)
			for id, an := range shards {
				if id == owner {
					mergeErr = an.IngestAt(a, seq)
				} else {
					mergeErr = an.Tick(a.ID, a.Start, a.End)
				}
				if mergeErr != nil {
					return
				}
			}
		}
		mergeSingle = single.Snapshot()
		for id, an := range shards {
			s := ShardSnapshot{ShardID: id, Applied: seq, Snap: an.Snapshot()}
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
	return mergeSnaps, mergeSingle
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
// reproduces the single-analyzer snapshot exactly, and the merge is
// invariant under shard order.
func TestMergeSnapshotsDeterministic(t *testing.T) {
	snaps, single := mergeFixture(t)
	want := asJSON(t, single)

	merged := MergeSnapshots(snaps)
	if got := asJSON(t, merged); got != want {
		t.Errorf("merged snapshot diverges from single analyzer:\n got %.600s\nwant %.600s", got, want)
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
	if p.Ingested != single.Ingested {
		t.Errorf("partial merge Ingested = %d, want %d (ticks are replicated)", p.Ingested, single.Ingested)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := MergeSnapshots(snaps)
		if merged.Ingested == 0 {
			b.Fatal("empty merge")
		}
	}
}
