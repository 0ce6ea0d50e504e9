package stream

import (
	"testing"

	"botscope/internal/dataset"
	"botscope/internal/synth"
)

// midFeed is an analyzer halfway through a scale-1 feed, the state a live
// dashboard polls, and the attack that comes next.
func midFeed(b *testing.B) (*Analyzer, *dataset.Attack) {
	b.Helper()
	store, err := synth.GenerateStore(synth.Config{Seed: 1, Scale: 1})
	if err != nil {
		b.Fatal(err)
	}
	attacks := store.Attacks()
	half := len(attacks) / 2
	sa := New()
	for _, a := range attacks[:half] {
		if err := sa.Ingest(a); err != nil {
			b.Fatal(err)
		}
	}
	return sa, attacks[half]
}

// BenchmarkAnalyzerSnapshot prices a live panel read: rebuild is the first
// read of a generation (every iteration's Tick starts a new one), cached
// every later read until the next write.
func BenchmarkAnalyzerSnapshot(b *testing.B) {
	sa, next := midFeed(b)
	want := sa.Ingested()

	b.Run("rebuild", func(b *testing.B) {
		// A tick at the last start leaves the state's size where it is,
		// however many iterations run.
		last := sa.Snapshot().LastStart
		b.ReportAllocs()
		for b.Loop() {
			if err := sa.Tick(next.ID, last, last); err != nil {
				b.Fatal(err)
			}
			want++
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
