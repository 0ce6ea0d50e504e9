package stream

import (
	"container/heap"
	"errors"
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
// keyed state over its hash partition via IngestAt, and the scalars over
// the full feed via IngestAt and Tick.
type Analyzer struct {
	mu sync.RWMutex

	// gen counts accepted writes: every Ingest, IngestAt and Tick that
	// changed the state bumps it, a rejected record does not.
	gen uint64 // guarded by mu
	// published is the snapshot of generation published.gen, current while
	// that equals gen. Readers that find it stale build under the read
	// lock — gen cannot move meanwhile — and publish with CompareAndSwap,
	// so of several that built at once one wins and none replaces a
	// snapshot already handed out with an equal copy.
	published memo.Slot[publishedSnapshot]

	scalars *Scalars // guarded by mu

	// The keyed answers, each held as the accumulator in internal/core
	// that defines it: Fig 1 and Table II, Fig 2, and (inside collab) §V's
	// Table VI.
	types  core.TypeCounts // guarded by mu
	daily  core.DailyFold  // guarded by mu
	collab *collabTracker  // guarded by mu
}

type publishedSnapshot struct {
	gen  uint64
	snap Snapshot
}

// New builds an empty streaming analyzer with the paper's collaboration
// windows (60 s start window, 30 min duration window).
func New() *Analyzer {
	return &Analyzer{
		scalars: NewScalars(),
		collab:  newCollabTracker(core.SimultaneousThreshold, core.CollabDurationWindow),
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

	s.types.Add(a.Category, a.Family, 1)
	s.daily.Observe(a.Start, a.Family)
	s.collab.ingest(a, seq)
	return nil
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

	snap.Protocols = s.types.Protocols()
	snap.FamilyProtocol = s.types.FamilyProtocol()
	snap.Daily = s.daily.Result()
	snap.Intervals = s.scalars.IntervalStats()
	snap.Durations = s.scalars.DurationStats()
	snap.Load = s.scalars.LoadStats()
	snap.Collaborations = s.collab.snapshot()
	return snap
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
