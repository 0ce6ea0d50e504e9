package stream

import (
	"math"
	"net/netip"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/memo"
	"botscope/internal/stats"
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

// Intervals, durations and load are one fold, core.Feed, which the
// analyzer runs live and the batch products exactly; the oracle holds its
// counts, shares and load to the paper's text. What is still two
// implementations is how a live fold summarizes: moments from stats.Online
// where the exact fold calls stats.Summarize, quantiles from a bounded
// sketch where it sorts. The two tests below tie those pairs together.

func TestParityIntervals(t *testing.T) {
	store := parityWorkload(t)
	snap := ingestAll(t, store).Snapshot()
	_, want, err := core.FoldStore(store).Intervals()
	if err != nil {
		t.Fatal(err)
	}
	checkSummary(t, "interval", snap.Intervals.Summary, want.Summary)
}

func TestParityDurations(t *testing.T) {
	store := parityWorkload(t)
	snap := ingestAll(t, store).Snapshot()
	_, want, err := core.FoldStore(store).Durations()
	if err != nil {
		t.Fatal(err)
	}
	checkSummary(t, "duration", snap.Durations.Summary, want.Summary)
}

// checkSummary holds a live summary to the exact one: moments within
// 1e-6, extremes exact, sketch quantiles within 2 %.
func checkSummary(t *testing.T, what string, got, want stats.Summary) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s N = %d, want %d", what, got.N, want.N)
	}
	relClose(t, what+" mean", got.Mean, want.Mean, 1e-6)
	relClose(t, what+" stddev", got.StdDev, want.StdDev, 1e-6)
	if got.Min != want.Min || got.Max != want.Max {
		t.Errorf("%s extremes = (%v, %v), want (%v, %v)", what, got.Min, got.Max, want.Min, want.Max)
	}
	relClose(t, what+" median", got.Median, want.Median, 0.02)
	relClose(t, what+" p80", got.P80, want.P80, 0.02)
	relClose(t, what+" p95", got.P95, want.P95, 0.02)
}

func TestParityCollaborations(t *testing.T) {
	store := parityWorkload(t)
	snap := ingestAll(t, store).Snapshot()
	want := core.AnalyzeCollaborationsFrom(memo.ViewOf(core.DetectCollaborations(store)))

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

// TestIngestRejectsZones: a zoned address is refused at ingest, as
// NewStore refuses it, so a live view never holds an address the sharded
// tier's wire would strip.
func TestIngestRejectsZones(t *testing.T) {
	sa := New()
	t0 := time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC)
	target := mkAttack(1, t0, time.Hour)
	target.TargetIP = netip.MustParseAddr("fe80::1%eth0")
	source := mkAttack(2, t0, time.Hour)
	source.BotIPs = append(source.BotIPs, netip.MustParseAddr("fe80::2%eth0"))
	for _, a := range []*dataset.Attack{target, source} {
		if err := sa.Ingest(a); err == nil || !strings.Contains(err.Error(), "has a zone") {
			t.Errorf("attack %d: Ingest error = %v, want a zone error", a.ID, err)
		}
	}
	if n := sa.Ingested(); n != 0 {
		t.Errorf("Ingested() = %d after two refused records, want 0", n)
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
