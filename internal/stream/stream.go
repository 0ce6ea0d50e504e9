package stream

import (
	"container/heap"
	"errors"
	"maps"
	"sort"
	"sync"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/memo"
	"botscope/internal/stats"
)

// ErrOutOfOrder is returned by Ingest when an attack starts before the
// previously ingested attack. The analyzer consumes an event-time-ordered
// feed (the monitoring service emits snapshots chronologically); feeders
// replaying unsorted files should sort first (see cmd/botfeed -sort).
var ErrOutOfOrder = errors.New("stream: attack starts before the previously ingested attack")

// Analyzer is a thread-safe, bounded-memory online analyzer over a live
// attack feed. One writer calls Ingest; any number of readers may call
// Snapshot concurrently (RWMutex-guarded). Every accepted write starts a
// new generation of the state, and a generation's snapshot is built by
// the first reader to ask, published once, and handed to every later one.
//
// Memory grows with the number of distinct (day, family) buckets, sketch
// buckets (bounded by the value range), currently active attacks, and open collaboration
// windows — never with the total number of ingested attacks.
//
// The global-order scalar statistics (gaps, durations, load) live in an
// embedded Scalars; the keyed statistics (protocol/family counters, daily
// buckets, collaboration windows) live here. The sharded serve tier
// (internal/cluster) splits along exactly this seam: each shard runs the
// keyed state over its hash partition via IngestAt/Advance, and a
// separate Scalars over the full tick stream.
type Analyzer struct {
	mu sync.RWMutex

	// gen counts accepted writes: every Ingest, IngestAt, Tick and Advance
	// that changed the state bumps it, a rejected record does not.
	gen uint64 // guarded by mu
	// published is the snapshot of generation published.gen, current while
	// that equals gen. Readers that find it stale build under the read
	// lock — gen cannot move meanwhile — and publish with CompareAndSwap,
	// so of several that built at once one wins and none replaces a
	// snapshot already handed out with an equal copy.
	published memo.Slot[publishedSnapshot]

	scalars *Scalars // guarded by mu

	// Protocol / family counters (Figs 1-2, Table II).
	byCategory map[dataset.Category]int                    // guarded by mu
	byCatFam   map[dataset.Category]map[dataset.Family]int // guarded by mu

	// Daily buckets by day index from the UTC midnight of the first
	// attack's day, mirroring core.DailyDistribution's anchoring. The feed
	// is start-ordered, so only the newest day can still change: closed
	// holds the earlier days already rendered, with their headline
	// statistics folded in, and is only ever appended to.
	dayAnchor time.Time       // guarded by mu
	closed    core.DailyStats // guarded by mu; Average holds nothing
	closedSum int             // guarded by mu
	openDay   int             // guarded by mu
	open      *dayBucket      // guarded by mu; nil before the first attack

	// Windowed cross-botnet collaboration detection (§V).
	collab *collabTracker // guarded by mu
}

type dayBucket struct {
	count    int
	byFamily map[dataset.Family]int
}

type publishedSnapshot struct {
	gen  uint64
	snap Snapshot
}

// New builds an empty streaming analyzer with the paper's collaboration
// windows (60 s start window, 30 min duration window).
func New() *Analyzer {
	return &Analyzer{
		scalars:    NewScalars(),
		byCategory: make(map[dataset.Category]int),
		byCatFam:   make(map[dataset.Category]map[dataset.Family]int),
		collab:     newCollabTracker(core.SimultaneousThreshold, core.CollabDurationWindow),
	}
}

// Ingest folds one attack into the online state. Attacks must arrive in
// event-time order (non-decreasing Start); records are validated like the
// batch store does. The record is retained only inside the active-load
// heap and open collaboration windows, both of which drain as event time
// advances.
func (s *Analyzer) Ingest(a *dataset.Attack) error {
	return s.ingest(a, 0)
}

// IngestAt is Ingest with an explicit global sequence number, for shard
// workers that see only a hash partition of the feed: seq is the record's
// 1-based position in the *global* stream, so collaboration candidates
// detected on different shards can be merged back into the exact order a
// single analyzer over the whole feed would report. Ingest is equivalent
// to IngestAt with the analyzer's own running count.
func (s *Analyzer) IngestAt(a *dataset.Attack, seq uint64) error {
	return s.ingest(a, seq)
}

func (s *Analyzer) ingest(a *dataset.Attack, seq uint64) error {
	if err := a.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	if err := s.scalars.Observe(a.ID, a.Start, a.End); err != nil {
		return err
	}
	s.gen++
	if seq == 0 {
		seq = uint64(s.scalars.N())
	}

	// Counters.
	s.byCategory[a.Category]++
	fams := s.byCatFam[a.Category]
	if fams == nil {
		fams = make(map[dataset.Family]int)
		s.byCatFam[a.Category] = fams
	}
	fams[a.Family]++

	// Daily buckets, anchored like core.DailyDistribution. The anchor is
	// the UTC midnight of the first *ingested* attack (not the first tick):
	// bucket d resolves to the absolute date anchor+d either way, so shards
	// with different anchors still agree on every bucket's calendar day.
	if s.dayAnchor.IsZero() {
		s.dayAnchor = time.Date(a.Start.Year(), a.Start.Month(), a.Start.Day(), 0, 0, 0, 0, time.UTC)
	}
	if d := int(a.Start.Sub(s.dayAnchor).Hours() / 24); s.open == nil || d != s.openDay {
		s.closeDay()
		s.openDay, s.open = d, &dayBucket{byFamily: make(map[dataset.Family]int)}
	}
	s.open.count++
	s.open.byFamily[a.Family]++

	// Collaboration windows.
	s.collab.ingest(a, seq)

	return nil
}

// Advance moves the analyzer's event horizon to t without ingesting an
// attack, expiring collaboration windows no future attack can join. Shard
// workers call it for every foreign tick (an attack homed on another
// shard), so windows close at exactly the same global event times they
// would close at in a single analyzer over the whole feed.
func (s *Analyzer) Advance(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.collab.advance(t)
}

// Tick folds a foreign attack's (id, start, end) into the scalar state and
// advances the collaboration horizon, without touching any keyed state.
// Shard workers call it for attacks homed on other shards: every shard
// folds the identical global tick sequence through the identical Scalars
// code, so every shard reports bit-identical global scalar statistics
// while its keyed statistics cover only its own hash partition.
func (s *Analyzer) Tick(id dataset.DDoSID, start, end time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.scalars.Observe(id, start, end); err != nil {
		return err
	}
	s.gen++
	s.collab.advance(start)
	return nil
}

// Snapshot is a point-in-time view of the online state, expressed in the
// batch result types so stream/batch parity is directly testable.
type Snapshot struct {
	// Ingested is the number of attacks folded in so far.
	Ingested int
	// FirstStart / LastStart bound the ingested event time.
	FirstStart time.Time
	LastStart  time.Time
	// ActiveAttacks is the number of attacks in progress at LastStart.
	ActiveAttacks int

	// Protocols is the Fig 1 breakdown; FamilyProtocol is Table II.
	Protocols      []core.ProtocolCount
	FamilyProtocol []core.FamilyProtocolRow
	// Daily is the Fig 2 distribution.
	Daily core.DailyStats
	// Intervals summarizes inter-attack gaps (§III-B); Median/P80/P95 come
	// from the quantile sketch, everything else is exact.
	Intervals core.IntervalStats
	// Durations summarizes attack durations (§III-C), same split.
	Durations core.DurationStats
	// Load is the §II-B concurrent-attack load summary. Peak and PeakTime
	// are exact; TimeWeightedMean integrates through the last ingested
	// attack's end, matching the batch sweep at end of stream.
	Load core.LoadStats
	// Collaborations summarizes live §V collaboration candidates.
	Collaborations CollabSummary
}

// Ingested returns the number of attacks folded in so far — what
// Snapshot().Ingested reports, without building the snapshot.
func (s *Analyzer) Ingested() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scalars.N()
}

// Snapshot returns the current online state. It is safe to call
// concurrently with Ingest. The value is immutable and shared: every
// caller between two writes gets the same slices and maps, so callers
// only read them; nothing in it aliases state the analyzer still writes.
// Unlike the batch summaries, an empty or single-attack snapshot reports
// zero statistics rather than NaNs, keeping the result JSON-encodable.
func (s *Analyzer) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()

	prev := s.published.Load()
	if prev != nil && prev.gen == s.gen {
		return prev.snap
	}
	next := &publishedSnapshot{gen: s.gen, snap: s.build()}
	if !s.published.CompareAndSwap(prev, next) {
		// Lost to a reader that built the same generation: gen is pinned
		// by the read lock and writers never touch the slot.
		next = s.published.Load()
	}
	return next.snap
}

// build materializes the state from scratch.
//
//lockguard:held mu
func (s *Analyzer) build() Snapshot {
	snap := Snapshot{
		Ingested:      s.scalars.N(),
		FirstStart:    s.scalars.FirstStart(),
		LastStart:     s.scalars.LastStart(),
		ActiveAttacks: s.scalars.Active(),
	}
	if snap.Ingested == 0 {
		return snap
	}

	snap.Protocols = s.protocolBreakdown()
	snap.FamilyProtocol = s.familyProtocolTable()
	snap.Daily = s.dailyStats()
	snap.Intervals = s.scalars.IntervalStats()
	snap.Durations = s.scalars.DurationStats()
	snap.Load = s.scalars.LoadStats()
	snap.Collaborations = s.collab.snapshot()
	return snap
}

// protocolBreakdown mirrors core.ProtocolBreakdown's ordering: count
// descending, ties by category display order.
//
//lockguard:held mu
func (s *Analyzer) protocolBreakdown() []core.ProtocolCount {
	out := make([]core.ProtocolCount, 0, len(s.byCategory))
	for _, c := range dataset.Categories {
		if s.byCategory[c] > 0 {
			out = append(out, core.ProtocolCount{Category: c, Count: s.byCategory[c]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// familyProtocolTable mirrors core.FamilyProtocolTable's ordering:
// categories in display order, families alphabetically inside each.
//
//lockguard:held mu
func (s *Analyzer) familyProtocolTable() []core.FamilyProtocolRow {
	var out []core.FamilyProtocolRow
	for _, c := range dataset.Categories {
		fams := make([]dataset.Family, 0, len(s.byCatFam[c]))
		for f := range s.byCatFam[c] {
			fams = append(fams, f)
		}
		sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
		for _, f := range fams {
			out = append(out, core.FamilyProtocolRow{Category: c, Family: f, Count: s.byCatFam[c][f]})
		}
	}
	return out
}

// render is the bucket as day d's row; the row takes the bucket's map.
func (b *dayBucket) render(anchor time.Time, d int) core.DailyCount {
	return core.DailyCount{Day: anchor.AddDate(0, 0, d), Count: b.count, ByFamily: b.byFamily}
}

// foldDay folds one rendered day into st's headline statistics with
// core.DailyDistribution's tie rules: the earliest peak day wins; its
// dominant family is by count, ties alphabetically.
func foldDay(st *core.DailyStats, dc core.DailyCount) {
	if dc.Count <= st.Max {
		return
	}
	st.Max, st.MaxDay = dc.Count, dc.Day
	best, bestN := dataset.Family(""), 0
	for f, n := range dc.ByFamily {
		if n > bestN || (n == bestN && f < best) {
			best, bestN = f, n
		}
	}
	st.MaxDominantFamily = best
}

// closeDay moves the open day, which no later attack can fall in, to the
// rendered prefix.
//
//lockguard:held mu
func (s *Analyzer) closeDay() {
	if s.open == nil {
		return
	}
	dc := s.open.render(s.dayAnchor, s.openDay)
	s.closed.Days = append(s.closed.Days, dc)
	s.closedSum += dc.Count
	foldDay(&s.closed, dc)
}

// dailyStats is the closed days plus the open one, rendered over a copy of
// its still-changing family map. Closed rows are shared between
// snapshots; nothing writes them again. A shard that has seen only ticks
// so far has no days.
//
//lockguard:held mu
func (s *Analyzer) dailyStats() core.DailyStats {
	if s.open == nil {
		return core.DailyStats{}
	}
	st := s.closed
	today := s.open.render(s.dayAnchor, s.openDay)
	today.ByFamily = maps.Clone(today.ByFamily)
	st.Days = append(append(make([]core.DailyCount, 0, len(st.Days)+1), st.Days...), today)
	foldDay(&st, today)
	span := int(today.Day.Sub(st.Days[0].Day).Hours()/24) + 1
	st.Average = float64(s.closedSum+today.Count) / float64(span)
	return st
}

// sketchSummary assembles a stats.Summary from exact online moments plus
// sketched quantiles, with zeros instead of NaNs for tiny samples.
func sketchSummary(o *stats.Online, sk *QuantileSketch) stats.Summary {
	if o.N() == 0 {
		return stats.Summary{}
	}
	sum := stats.Summary{
		N:      o.N(),
		Mean:   o.Mean(),
		Min:    o.Min(),
		Max:    o.Max(),
		Median: sk.Quantile(0.5),
		P80:    sk.Quantile(0.8),
		P95:    sk.Quantile(0.95),
	}
	if o.N() >= 2 {
		sum.StdDev = o.StdDev()
	}
	return sum
}

// endHeap is a min-heap of attack end times in unix nanoseconds.
type endHeap []int64

func (h endHeap) Len() int           { return len(h) }
func (h endHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h endHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)        { *h = append(*h, x.(int64)) }
func (h *endHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

var _ = heap.Interface(&endHeap{})
