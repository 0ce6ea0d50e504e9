// Package stream provides bounded-memory online analytics over a live feed
// of DDoS attack records. A stream.Analyzer ingests dataset.Attack records
// one at a time (single writer) and folds them into the definitions of
// internal/core: protocol/family counters and daily buckets (Figs 1-2),
// the whole-feed fold of inter-attack intervals and durations (§III-B/C,
// with sketched quantiles) and the concurrent load (§II-B), and windowed
// cross-botnet collaboration detection (§V). Snapshot() returns the same
// result types the batch Analyzer produces, so parity is directly
// testable.
package stream

import (
	"errors"
	"sync"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/memo"
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
// An Analyzer is its two halves under one lock: the whole-feed statistics
// (gaps, durations, load) in a Scalars, and the per-target ones
// (protocol/family counters, daily buckets, collaboration windows) in a
// Partition over the whole feed. The sharded serve tier
// (internal/cluster) splits along exactly this seam: its frontend folds
// the one Scalars over the feed in order, and each shard holds a
// Partition over its hash partition.
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

	scalars *Scalars   // guarded by mu
	part    *Partition // guarded by mu
}

type publishedSnapshot struct {
	gen  uint64
	snap Snapshot
}

// New builds an empty streaming analyzer with the paper's collaboration
// windows (60 s start window, 30 min duration window).
func New() *Analyzer {
	return &Analyzer{scalars: NewScalars(), part: NewPartition()}
}

// Ingest folds one attack into the online state. Attacks must arrive in
// event-time order (non-decreasing Start); records are validated like the
// batch store does. The record is retained only inside the active-load
// heap and open collaboration windows, both of which drain as event time
// advances.
func (s *Analyzer) Ingest(a *dataset.Attack) error {
	if err := a.Validate(); err != nil {
		return err
	}
	return s.ingest(a, 0)
}

// IngestAt is Ingest with an explicit global sequence number: seq is the
// record's 1-based position in the stream, which stamps the collaboration
// windows it opens (Partition.Ingest).
//
// IngestAt checks only the record's key — id, botnet, family, category,
// target, start and end (ValidateKey) — and reads no other field. seq 0
// means the analyzer's own running count, the sequence Ingest uses: given
// a record that passes Validate, Ingest(a) is IngestAt(a, 0). The
// single-process server calls it that way with the keys
// dataset.DecodeJSONLKeys already validated whole.
func (s *Analyzer) IngestAt(a *dataset.Attack, seq uint64) error {
	if err := a.ValidateKey(); err != nil {
		return err
	}
	return s.ingest(a, seq)
}

// ingest folds a validated record.
func (s *Analyzer) ingest(a *dataset.Attack, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	if err := s.scalars.Observe(a.ID, a.Start, a.End); err != nil {
		return err
	}
	s.gen++
	if seq == 0 {
		seq = uint64(s.scalars.N())
	}
	s.part.fold(a, seq)
	s.part.Advance(1, a.Start)
	return nil
}

// Tick folds an attack the analyzer holds no key for: its (id, start, end)
// into the whole-feed statistics, and its start into the per-target half
// as one more record covered (Partition.Advance). It builds the partials
// of a partitioned feed from whole analyzers (benchmark/layers.go's merge
// probe); the serve tiers never call it.
func (s *Analyzer) Tick(id dataset.DDoSID, start, end time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.scalars.Observe(id, start, end); err != nil {
		return err
	}
	s.gen++
	s.part.Advance(1, start)
	return nil
}

// Snapshot is a point-in-time view of the online state, expressed in the
// batch result types so stream/batch parity is directly testable.
//
// Scalars.Fill writes the whole-feed fields (Ingested, the time bounds,
// ActiveAttacks, Intervals, Durations, Load); Partition.Snapshot writes the
// per-target ones (Protocols, FamilyProtocol, Daily, Collaborations), and
// in a partition's own snapshot Ingested and LastStart are the records it
// covers and their latest start.
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
	// Load is the §II-B concurrent-attack load summary, exact: the fold's
	// load half integrates through the last ingested attack's end.
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
// Where the batch products answer an error, an empty or single-attack
// snapshot reports zero statistics, keeping the result JSON-encodable.
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
func (s *Analyzer) build() Snapshot {
	snap := s.part.Snapshot()
	s.scalars.Fill(&snap)
	return snap
}
