package stream

import (
	"fmt"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
)

// Scalars holds the whole-feed statistics of an attack feed — gaps
// (§III-B), durations (§III-C) and the concurrent load (§II-B) in a live
// core.Feed, the fold the batch products run exactly — plus the
// event-time bounds and the order check the fold requires. Only a holder
// of the whole feed, in order, can fold it: the analyzer holds one beside
// its Partition, and the sharded tier's frontend holds the one its shards
// do not. It is not safe for concurrent use (the Analyzer guards it with
// its RWMutex, the frontend with a mutex), but concurrent Fills are.
type Scalars struct {
	feed       *core.Feed
	firstStart time.Time
	lastStart  time.Time
}

// NewScalars builds an empty scalar accumulator.
func NewScalars() *Scalars { return &Scalars{feed: core.NewLiveFeed()} }

// Observe folds one attack's (start, end) into the scalar state. Attacks
// must arrive in event-time order (non-decreasing start); id only labels
// the ErrOutOfOrder error.
func (sc *Scalars) Observe(id dataset.DDoSID, start, end time.Time) error {
	if sc.feed.N() > 0 && start.Before(sc.lastStart) {
		return fmt.Errorf("%w: %v < %v (attack %d)", ErrOutOfOrder, start, sc.lastStart, id)
	}
	if sc.feed.N() == 0 {
		sc.firstStart = start
	}
	sc.feed.Observe(start.UnixNano(), end.UnixNano())
	sc.lastStart = start
	return nil
}

// N returns the number of attacks observed.
func (sc *Scalars) N() int { return sc.feed.N() }

// Fill sets snap's whole-feed fields — Ingested, FirstStart, LastStart,
// ActiveAttacks, Intervals, Durations and Load — from the attacks observed
// so far. Before the first they are all zero.
func (sc *Scalars) Fill(snap *Snapshot) {
	snap.Ingested = sc.feed.N()
	snap.FirstStart = sc.firstStart
	snap.LastStart = sc.lastStart
	snap.ActiveAttacks = sc.feed.Active()
	_, snap.Intervals, _ = sc.feed.Intervals()
	_, snap.Durations, _ = sc.feed.Durations()
	_, snap.Load, _ = sc.feed.Load()
}
