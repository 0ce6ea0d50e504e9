package stream

import (
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
)

// Partition is the per-target half of the online state over one target
// partition of a feed: Fig 1 and Table II (core.TypeCounts), Fig 2
// (core.DailyFold) and §V's collaboration windows. A cluster shard holds
// one over its hash partition, an Analyzer one over the whole feed. Other
// partitions' records reach it only as a count and a horizon (Advance).
// Partition is not safe for concurrent use.
type Partition struct {
	covered int       // records of the feed covered, the partition's own included
	horizon time.Time // the latest start among them

	types  core.TypeCounts
	daily  core.DailyFold
	collab *collabTracker
}

// NewPartition builds an empty partition with the paper's collaboration
// windows (60 s start window, 30 min duration window).
func NewPartition() *Partition {
	return &Partition{collab: newCollabTracker(core.SimultaneousThreshold, core.CollabDurationWindow)}
}

// Ingest folds one record of the partition, in the feed's order. seq is
// its 1-based position in the whole feed, so candidates from different
// partitions merge back into one partition's order (MergeCollab). Ingest
// checks and reads only the record's key (ValidateKey).
func (p *Partition) Ingest(a *dataset.Attack, seq uint64) error {
	if err := a.ValidateKey(); err != nil {
		return err
	}
	p.fold(a, seq)
	return nil
}

// fold folds a validated record.
func (p *Partition) fold(a *dataset.Attack, seq uint64) {
	p.types.Add(a.Category, a.Family, 1)
	p.daily.Observe(a.Start, a.Family)
	p.collab.ingest(a, seq)
}

// Advance covers n more records of the feed, own (already Ingested) and
// others', the latest starting at horizon: it closes the collaboration
// windows the horizon has passed and moves LastStart.
func (p *Partition) Advance(n int, horizon time.Time) {
	p.covered += n
	p.horizon = horizon
	p.collab.advance(horizon)
}

// Snapshot renders the per-target half, with Ingested the records covered
// and LastStart the horizon; the other whole-feed fields stay zero
// (Scalars.Fill), and all of it until a record is covered. Nothing in it
// aliases state the partition still writes.
func (p *Partition) Snapshot() Snapshot {
	if p.covered == 0 {
		return Snapshot{}
	}
	return Snapshot{
		Ingested:       p.covered,
		LastStart:      p.horizon,
		Protocols:      p.types.Protocols(),
		FamilyProtocol: p.types.FamilyProtocol(),
		Daily:          p.daily.Result(),
		Collaborations: p.collab.snapshot(),
	}
}
