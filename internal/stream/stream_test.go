package stream

import (
	"math"
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/synth"
)

var (
	parityOnce  sync.Once
	parityStore *dataset.Store
	parityErr   error
)

// parityWorkload shares one seeded workload across the parity tests.
func parityWorkload(t *testing.T) *dataset.Store {
	t.Helper()
	parityOnce.Do(func() {
		parityStore, parityErr = synth.GenerateStore(synth.Config{Seed: 3, Scale: 0.05})
	})
	if parityErr != nil {
		t.Fatal(parityErr)
	}
	return parityStore
}

// ingestAll replays the store's attacks through a fresh analyzer in
// event-time order, the way a feeder would.
func ingestAll(t *testing.T, s *dataset.Store) *Analyzer {
	t.Helper()
	sa := New()
	for _, a := range s.Attacks() {
		if err := sa.Ingest(a); err != nil {
			t.Fatalf("ingest attack %d: %v", a.ID, err)
		}
	}
	return sa
}

// relClose fails unless got is within tol relative error of want (absolute
// for |want| < 1).
func relClose(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	denom := math.Abs(want)
	if denom < 1 {
		denom = 1
	}
	if math.Abs(got-want)/denom > tol {
		t.Errorf("%s = %v, want %v (tolerance %v)", name, got, want, tol)
	}
}

func TestParityCounters(t *testing.T) {
	store := parityWorkload(t)
	snap := ingestAll(t, store).Snapshot()

	if snap.Ingested != store.NumAttacks() {
		t.Fatalf("ingested %d attacks, store has %d", snap.Ingested, store.NumAttacks())
	}
	if !reflect.DeepEqual(snap.Protocols, core.ProtocolBreakdown(store)) {
		t.Errorf("protocol breakdown mismatch:\n got %v\nwant %v", snap.Protocols, core.ProtocolBreakdown(store))
	}
	if !reflect.DeepEqual(snap.FamilyProtocol, core.FamilyProtocolTable(store)) {
		t.Errorf("family/protocol table mismatch")
	}
}

func TestParityDaily(t *testing.T) {
	store := parityWorkload(t)
	snap := ingestAll(t, store).Snapshot()
	want, err := core.DailyDistribution(store)
	if err != nil {
		t.Fatal(err)
	}

	if snap.Daily.Max != want.Max || !snap.Daily.MaxDay.Equal(want.MaxDay) ||
		snap.Daily.MaxDominantFamily != want.MaxDominantFamily {
		t.Errorf("daily headline = (%d, %v, %s), want (%d, %v, %s)",
			snap.Daily.Max, snap.Daily.MaxDay, snap.Daily.MaxDominantFamily,
			want.Max, want.MaxDay, want.MaxDominantFamily)
	}
	relClose(t, "daily average", snap.Daily.Average, want.Average, 1e-9)
	if len(snap.Daily.Days) != len(want.Days) {
		t.Fatalf("daily series length = %d, want %d", len(snap.Daily.Days), len(want.Days))
	}
	for i, d := range want.Days {
		got := snap.Daily.Days[i]
		if !got.Day.Equal(d.Day) || got.Count != d.Count || !reflect.DeepEqual(got.ByFamily, d.ByFamily) {
			t.Fatalf("day %d mismatch: got %+v, want %+v", i, got, d)
		}
	}
}

// Intervals, durations and load stay two implementations by design — the
// stream answers quantiles from a bounded sketch where the batch sorts the
// exact ECDF, and Scalars sweeps load online over a heap of end times where
// core.ConcurrentLoad merges the start and end columns and also emits the
// 2n-point series — so the three tests below are what ties each pair
// together; the keyed panels above and below them are one definition in
// internal/core, held here.

func TestParityIntervals(t *testing.T) {
	store := parityWorkload(t)
	snap := ingestAll(t, store).Snapshot()
	want, err := core.AnalyzeIntervals(core.AllIntervals(store))
	if err != nil {
		t.Fatal(err)
	}

	if snap.Intervals.N != want.N {
		t.Fatalf("interval N = %d, want %d", snap.Intervals.N, want.N)
	}
	if snap.Intervals.SimultaneousFrac != want.SimultaneousFrac {
		t.Errorf("simultaneous frac = %v, want %v", snap.Intervals.SimultaneousFrac, want.SimultaneousFrac)
	}
	if snap.Intervals.ExactZeroFrac != want.ExactZeroFrac {
		t.Errorf("zero frac = %v, want %v", snap.Intervals.ExactZeroFrac, want.ExactZeroFrac)
	}
	relClose(t, "interval mean", snap.Intervals.Mean, want.Mean, 1e-6)
	relClose(t, "interval stddev", snap.Intervals.StdDev, want.StdDev, 1e-6)
	if snap.Intervals.Min != want.Min || snap.Intervals.Max != want.Max {
		t.Errorf("interval extremes = (%v, %v), want (%v, %v)",
			snap.Intervals.Min, snap.Intervals.Max, want.Min, want.Max)
	}
	// Sketch quantiles: the acceptance bar is <= 2% relative error.
	relClose(t, "interval median", snap.Intervals.Median, want.Median, 0.02)
	relClose(t, "interval p80", snap.Intervals.P80, want.P80, 0.02)
	relClose(t, "interval p95", snap.Intervals.P95, want.P95, 0.02)
}

func TestParityDurations(t *testing.T) {
	store := parityWorkload(t)
	snap := ingestAll(t, store).Snapshot()
	want, err := core.AnalyzeDurations(core.Durations(store))
	if err != nil {
		t.Fatal(err)
	}

	if snap.Durations.N != want.N {
		t.Fatalf("duration N = %d, want %d", snap.Durations.N, want.N)
	}
	if snap.Durations.FracUnder4h != want.FracUnder4h || snap.Durations.FracUnder60s != want.FracUnder60s {
		t.Errorf("duration fractions = (%v, %v), want (%v, %v)",
			snap.Durations.FracUnder4h, snap.Durations.FracUnder60s,
			want.FracUnder4h, want.FracUnder60s)
	}
	relClose(t, "duration mean", snap.Durations.Mean, want.Mean, 1e-6)
	relClose(t, "duration stddev", snap.Durations.StdDev, want.StdDev, 1e-6)
	if snap.Durations.Min != want.Min || snap.Durations.Max != want.Max {
		t.Errorf("duration extremes = (%v, %v), want (%v, %v)",
			snap.Durations.Min, snap.Durations.Max, want.Min, want.Max)
	}
	relClose(t, "duration median", snap.Durations.Median, want.Median, 0.02)
	relClose(t, "duration p80", snap.Durations.P80, want.P80, 0.02)
	relClose(t, "duration p95", snap.Durations.P95, want.P95, 0.02)
}

func TestParityLoad(t *testing.T) {
	store := parityWorkload(t)
	snap := ingestAll(t, store).Snapshot()
	_, want, err := core.ConcurrentLoad(store)
	if err != nil {
		t.Fatal(err)
	}

	if snap.Load.Peak != want.Peak {
		t.Errorf("load peak = %d, want %d", snap.Load.Peak, want.Peak)
	}
	if !snap.Load.PeakTime.Equal(want.PeakTime) {
		t.Errorf("load peak time = %v, want %v", snap.Load.PeakTime, want.PeakTime)
	}
	relClose(t, "time-weighted mean load", snap.Load.TimeWeightedMean, want.TimeWeightedMean, 1e-6)
}

func TestParityCollaborations(t *testing.T) {
	store := parityWorkload(t)
	snap := ingestAll(t, store).Snapshot()
	want := core.AnalyzeCollaborationsFrom(core.DetectCollaborations(store))

	if snap.Collaborations.TotalIntra != want.TotalIntra {
		t.Errorf("intra collaborations = %d, want %d", snap.Collaborations.TotalIntra, want.TotalIntra)
	}
	if snap.Collaborations.TotalInter != want.TotalInter {
		t.Errorf("inter collaborations = %d, want %d", snap.Collaborations.TotalInter, want.TotalInter)
	}
	relClose(t, "mean botnets", snap.Collaborations.MeanBotnets, want.MeanBotnets, 1e-9)
	if !reflect.DeepEqual(snap.Collaborations.Intra, want.Intra) {
		t.Errorf("intra map = %v, want %v", snap.Collaborations.Intra, want.Intra)
	}
	if !reflect.DeepEqual(snap.Collaborations.Inter, want.Inter) {
		t.Errorf("inter map = %v, want %v", snap.Collaborations.Inter, want.Inter)
	}
	if !reflect.DeepEqual(snap.Collaborations.PairCounts, want.PairCounts) {
		t.Errorf("pair counts = %v, want %v", snap.Collaborations.PairCounts, want.PairCounts)
	}
	if want.TotalIntra+want.TotalInter > 0 && len(snap.Collaborations.Recent) == 0 {
		t.Error("no recent candidates despite detected collaborations")
	}
}

// TestConcurrentSnapshots drives one writer and several snapshot readers
// at once; run under -race this is the §II-B "live dashboard" scenario.
func TestConcurrentSnapshots(t *testing.T) {
	store := parityWorkload(t)
	attacks := store.Attacks()
	sa := New()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := sa.Snapshot()
				if snap.Ingested > 0 && len(snap.Protocols) == 0 {
					t.Error("non-empty snapshot without protocol counts")
					return
				}
				if snap.Load.Peak < 0 || snap.ActiveAttacks < 0 {
					t.Error("negative load in snapshot")
					return
				}
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

// TestAnalyzerIngestedMatchesSnapshot holds the O(1) counter the ingest
// endpoint reports to the snapshot's: equal after every record on the
// writer, and bracketing a concurrent snapshot on a reader.
func TestAnalyzerIngestedMatchesSnapshot(t *testing.T) {
	sa := New()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			lo := sa.Ingested()
			snap := sa.Snapshot().Ingested
			if hi := sa.Ingested(); snap < lo || snap > hi {
				t.Errorf("snapshot saw %d ingested between Ingested() = %d and %d", snap, lo, hi)
				return
			}
		}
	}()
	t0 := time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC)
	for i := 1; i <= 500; i++ {
		if err := sa.Ingest(mkAttack(uint64(i), t0.Add(time.Duration(i)*time.Minute), time.Hour)); err != nil {
			t.Fatal(err)
		}
		if got, snap := sa.Ingested(), sa.Snapshot().Ingested; got != i || snap != i {
			t.Fatalf("after %d records Ingested() = %d, Snapshot().Ingested = %d", i, got, snap)
		}
	}
	close(done)
	wg.Wait()
}

func mkAttack(id uint64, start time.Time, dur time.Duration) *dataset.Attack {
	return &dataset.Attack{
		ID:       dataset.DDoSID(id),
		BotnetID: dataset.BotnetID(id%7 + 1),
		Family:   dataset.Dirtjumper,
		Category: dataset.CategoryHTTP,
		TargetIP: netip.MustParseAddr("192.0.2.1"),
		Start:    start,
		End:      start.Add(dur),
		BotIPs:   []netip.Addr{netip.MustParseAddr("198.51.100.1")},
	}
}

func TestIngestOutOfOrder(t *testing.T) {
	sa := New()
	t0 := time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC)
	if err := sa.Ingest(mkAttack(1, t0, time.Hour)); err != nil {
		t.Fatal(err)
	}
	err := sa.Ingest(mkAttack(2, t0.Add(-time.Second), time.Hour))
	if err == nil {
		t.Fatal("out-of-order ingest accepted")
	}
	if snap := sa.Snapshot(); snap.Ingested != 1 {
		t.Errorf("rejected attack counted: ingested = %d", snap.Ingested)
	}
}

func TestIngestInvalidAttack(t *testing.T) {
	sa := New()
	bad := mkAttack(0, time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC), time.Hour)
	if err := sa.Ingest(bad); err == nil {
		t.Fatal("zero-ID attack accepted")
	}
}

func TestEmptySnapshot(t *testing.T) {
	snap := New().Snapshot()
	if snap.Ingested != 0 || snap.Load.Peak != 0 || len(snap.Protocols) != 0 {
		t.Errorf("empty snapshot = %+v", snap)
	}
}

// TestZeroDurationAttacksDoNotInflateLoad holds the online sweep to the
// batch sweep's tie rule: a zero-duration attack never counts as active.
func TestZeroDurationAttacksDoNotInflateLoad(t *testing.T) {
	sa := New()
	t0 := time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC)
	for i := uint64(1); i <= 3; i++ {
		if err := sa.Ingest(mkAttack(i, t0.Add(time.Duration(i)*time.Minute), 0)); err != nil {
			t.Fatal(err)
		}
	}
	snap := sa.Snapshot()
	if snap.Load.Peak != 0 || snap.ActiveAttacks != 0 {
		t.Errorf("zero-duration load = peak %d active %d, want 0/0", snap.Load.Peak, snap.ActiveAttacks)
	}
	if !snap.Load.PeakTime.IsZero() {
		t.Errorf("peak time = %v, want zero", snap.Load.PeakTime)
	}
}

// TestSnapshotMidStreamMonotone checks that mid-stream snapshots stay
// internally consistent while ingestion continues.
func TestSnapshotMidStreamMonotone(t *testing.T) {
	store := parityWorkload(t)
	attacks := store.Attacks()
	sa := New()
	var lastIngested int
	for i, a := range attacks {
		if err := sa.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			snap := sa.Snapshot()
			if snap.Ingested < lastIngested {
				t.Fatalf("ingested went backwards: %d -> %d", lastIngested, snap.Ingested)
			}
			if snap.Ingested >= 2 && snap.Intervals.N != snap.Ingested-1 {
				t.Fatalf("interval N = %d with %d ingested", snap.Intervals.N, snap.Ingested)
			}
			lastIngested = snap.Ingested
		}
	}
}
