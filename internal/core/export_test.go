package core

import (
	"net/netip"

	"botscope/internal/dataset"
)

// The declarations below are read only by tests: the one-shot forms of
// the held Fig 2 merge and the held-fit prediction, and the address-keyed
// blacklist membership the reference replays compare by.

// MergeDaily is the distribution over the union of disjoint partitions of
// one feed, from each partition's result: their ascending day series,
// merged in day order. It is a DailyMerge's first call.
func MergeDaily(parts ...DailyStats) DailyStats {
	in := make([]DailyPart, len(parts))
	for i, p := range parts {
		in[i].Days = p.Days
	}
	var m DailyMerge
	return m.Merge(in)
}

// PredictSeries is DispersionIndex.Predict on a pre-extracted series, so
// callers can forecast any per-attack quantity. It fits afresh on every
// call.
func PredictSeries(f dataset.Family, series []float64, cfg PredictConfig) (*PredictionResult, error) {
	split, err := predictSplit(f, len(series), cfg)
	if err != nil {
		return nil, err
	}
	model, err := fitOrder(series[:split], cfg.Order)
	return scorePrediction(f, series, split, model, err)
}

// Contains reports whether ip is blacklisted. It is the one membership
// test that starts from an address, so it alone pays for the index's
// reverse map. The unsigned compare rejects -1 and truncated positions.
func (b *Blacklist) Contains(ip netip.Addr) bool {
	if b.ix == nil {
		return false
	}
	id, ok := b.ix.ID(ip)
	return ok && uint32(b.rank[id]) < uint32(len(b.ranked))
}
