package stream

import (
	"testing"

	"botscope/internal/synth"
)

// midFeed is an analyzer halfway through a scale-1 feed, the state a live
// dashboard polls.
func midFeed(b *testing.B) *Analyzer {
	b.Helper()
	store, err := synth.GenerateStore(synth.Config{Seed: 1, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	attacks := store.Attacks()
	sa := New()
	for _, a := range attacks[:len(attacks)/2] {
		if err := sa.Ingest(a); err != nil {
			b.Fatal(err)
		}
	}
	return sa
}

// BenchmarkAnalyzerSnapshot prices a live panel read: rebuild is the first
// read of a generation (every iteration starts a new one over the same
// state), cached every later read until the next write.
func BenchmarkAnalyzerSnapshot(b *testing.B) {
	sa := midFeed(b)
	want := sa.Ingested()

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sa.mu.Lock()
			sa.gen++
			sa.mu.Unlock()
			if snap := sa.Snapshot(); snap.Ingested != want {
				b.Fatalf("snapshot ingested = %d, want %d", snap.Ingested, want)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		sa.Snapshot()
		b.ReportAllocs()
		for b.Loop() {
			if snap := sa.Snapshot(); snap.Ingested != want {
				b.Fatalf("snapshot ingested = %d, want %d", snap.Ingested, want)
			}
		}
	})
}
