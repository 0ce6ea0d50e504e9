package stream

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/synth"
)

// refDaily is the daily distribution computed the way the analyzer did
// before it kept closed days rendered: every day's bucket rebuilt from
// the records, sorted, and scanned for the headline statistics.
func refDaily(attacks []*dataset.Attack) core.DailyStats {
	first := attacks[0].Start
	anchor := time.Date(first.Year(), first.Month(), first.Day(), 0, 0, 0, 0, time.UTC)
	byDay := make(map[int]*core.DailyCount)
	for _, a := range attacks {
		d := int(a.Start.Sub(anchor).Hours() / 24)
		if byDay[d] == nil {
			byDay[d] = &core.DailyCount{Day: anchor.AddDate(0, 0, d), ByFamily: make(map[dataset.Family]int)}
		}
		byDay[d].Count++
		byDay[d].ByFamily[a.Family]++
	}
	idx := make([]int, 0, len(byDay))
	for d := range byDay {
		idx = append(idx, d)
	}
	sort.Ints(idx)
	var st core.DailyStats
	total := 0
	for _, d := range idx {
		dc := *byDay[d]
		st.Days = append(st.Days, dc)
		total += dc.Count
		if dc.Count > st.Max {
			st.Max, st.MaxDay, st.MaxDominantFamily = dc.Count, dc.Day, ""
			for f, n := range dc.ByFamily {
				if best := dc.ByFamily[st.MaxDominantFamily]; n > best || (n == best && f < st.MaxDominantFamily) {
					st.MaxDominantFamily = f
				}
			}
		}
	}
	st.Average = float64(total) / float64(idx[len(idx)-1]-idx[0]+1)
	return st
}

// sharesBacking reports whether two snapshots are one published value:
// same slice backing arrays, same maps.
func sharesBacking(a, b Snapshot) bool {
	return &a.Protocols[0] == &b.Protocols[0] && &a.FamilyProtocol[0] == &b.FamilyProtocol[0] &&
		&a.Daily.Days[0] == &b.Daily.Days[0] &&
		reflect.ValueOf(a.Collaborations.Intra).Pointer() == reflect.ValueOf(b.Collaborations.Intra).Pointer()
}

// TestSnapshotPublishedOncePerGeneration replays a feed through every
// write entry point and checks, at each checkpoint, that reads between
// two writes are one shared value and that the first read after a write
// is what an analyzer that never published anything builds from the same
// prefix.
func TestSnapshotPublishedOncePerGeneration(t *testing.T) {
	store, err := synth.GenerateStore(synth.Config{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	attacks := store.Attacks()

	// One write per record, cycling through the entry points: an explicit
	// sequence, the running count, and a whole record.
	write := func(sa *Analyzer, i int) error {
		a := attacks[i]
		switch i % 3 {
		case 0:
			return sa.IngestAt(a, uint64(i+1))
		case 1:
			return sa.IngestAt(a, 0)
		}
		return sa.Ingest(a)
	}

	sa := New()
	checkpoints := 0
	for i := range attacks {
		checkpoint := i%23 == 0 || i == len(attacks)-1
		var before Snapshot
		if checkpoint {
			// Publish first, so that record i's write is the only one
			// between two reads.
			before = sa.Snapshot()
		}
		if err := write(sa, i); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !checkpoint {
			continue
		}
		checkpoints++

		got := sa.Snapshot()
		if again := sa.Snapshot(); !sharesBacking(got, again) {
			t.Fatalf("after record %d: two reads with no write between are different values", i)
		}
		if len(before.Protocols) > 0 && sharesBacking(before, got) {
			t.Fatalf("after record %d (entry point %d): the write did not start a new generation", i, i%3)
		}
		twin := New()
		for j := 0; j <= i; j++ {
			if err := write(twin, j); err != nil {
				t.Fatal(err)
			}
		}
		if want := twin.build(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after record %d (entry point %d): published snapshot differs from a fresh build\n got %+v\nwant %+v", i, i%3, got, want)
		}
		if want := refDaily(attacks[:i+1]); !reflect.DeepEqual(got.Daily, want) {
			t.Fatalf("after record %d: daily = %+v\nwant %+v", i, got.Daily, want)
		}
	}
	if checkpoints < 200 {
		t.Fatalf("%d checkpoints, want at least 200", checkpoints)
	}

	// A refused record leaves the state, and so the published snapshot,
	// as it was.
	before := sa.Snapshot()
	if err := sa.Ingest(attacks[0]); err == nil {
		t.Fatal("out-of-order record accepted")
	}
	if !sharesBacking(before, sa.Snapshot()) {
		t.Error("a refused record invalidated the published snapshot")
	}
	if n := testing.AllocsPerRun(100, func() { sa.Snapshot() }); n != 0 {
		t.Errorf("a read of the current generation allocates %v times", n)
	}
}

// TestPartitionAdvanceOnly is a shard before the first record of its own
// partition: the records it covers and their horizon advance, nothing
// else does.
func TestPartitionAdvanceOnly(t *testing.T) {
	p := NewPartition()
	t0 := time.Date(2012, 8, 29, 23, 0, 0, 0, time.UTC)
	p.Advance(2, t0)
	p.Advance(1, t0.Add(time.Hour))
	snap := p.Snapshot()
	if snap.Ingested != 3 || !snap.LastStart.Equal(t0.Add(time.Hour)) || !snap.FirstStart.IsZero() ||
		len(snap.Protocols)+len(snap.Daily.Days)+snap.Collaborations.Qualified != 0 {
		t.Errorf("advances alone: %+v, want 3 records covered to %v and nothing else", snap, t0.Add(time.Hour))
	}
}

// TestSnapshotConcurrentReaders polls from eight readers while one writer
// feeds — under -race, the §II-B "live dashboard" scenario: no reader may
// see the feed go backwards or a snapshot whose parts come from different
// moments, and the writer's every record lands.
func TestSnapshotConcurrentReaders(t *testing.T) {
	attacks := parityWorkload(t).Attacks()
	sa := New()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held Snapshot
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := sa.Snapshot()
				if snap.Ingested < held.Ingested || snap.LastStart.Before(held.LastStart) {
					t.Errorf("snapshot went back: %d records to %v after %d to %v",
						snap.Ingested, snap.LastStart, held.Ingested, held.LastStart)
					return
				}
				if snap.Ingested == held.Ingested && held.Ingested > 0 && !sharesBacking(snap, held) {
					t.Errorf("two values for the generation at %d records", snap.Ingested)
					return
				}
				byProtocol, byDay := 0, 0
				for _, p := range snap.Protocols {
					byProtocol += p.Count
				}
				for _, d := range snap.Daily.Days {
					byDay += d.Count
				}
				if byProtocol != snap.Ingested || byDay != snap.Ingested || snap.Durations.N != snap.Ingested {
					t.Errorf("torn snapshot: %d ingested, %d by protocol, %d by day, %d durations",
						snap.Ingested, byProtocol, byDay, snap.Durations.N)
					return
				}
				if snap.ActiveAttacks < 0 || snap.ActiveAttacks > snap.Load.Peak {
					t.Errorf("load: %d active, peak %d", snap.ActiveAttacks, snap.Load.Peak)
					return
				}
				held = snap
			}
		}()
	}
	for _, a := range attacks {
		if err := sa.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if got := sa.Snapshot().Ingested; got != len(attacks) {
		t.Fatalf("ingested %d, want %d", got, len(attacks))
	}
}

// TestSnapshotPublishDiscipline pins the CompareAndSwap publish on the
// analyzer's memo slot, as TestSnapshotCachePublishDiscipline does for
// the frontend's: a reader that loaded the slot before another published
// must lose, never replace the value already handed out. Snapshot follows
// exactly this sequence, and a plain Store there does not compile:
// memo.Slot has no such method.
func TestSnapshotPublishDiscipline(t *testing.T) {
	sa := New()
	prev := sa.published.Load() // nil: nothing published yet
	first := &publishedSnapshot{gen: 0, snap: Snapshot{Ingested: 1}}
	if !sa.published.CompareAndSwap(prev, first) {
		t.Fatal("publishing into an empty slot failed")
	}
	if sa.published.CompareAndSwap(prev, &publishedSnapshot{gen: 0, snap: Snapshot{Ingested: 2}}) {
		t.Fatal("a second build of the generation replaced the published one")
	}
	if got := sa.Snapshot(); got.Ingested != 1 {
		t.Fatalf("Snapshot returned %+v, want the published value", got)
	}
}
