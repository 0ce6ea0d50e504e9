package cluster

import (
	"botscope/internal/binenc"
	"botscope/internal/core"
	"botscope/internal/stats"
	"botscope/internal/stream"
)

// ShardSnapshot is one shard's contribution to a merged live view: the
// shard's identity, how many ingest entries it has applied, and its
// stream.Snapshot. The snapshot's scalar half (Ingested, time bounds,
// Intervals, Durations, Load) covers the *global* stream — every shard
// replicates it from the tick feed — while the keyed half (Protocols,
// FamilyProtocol, Daily, Collaborations) covers only the shard's target
// partition.
//
// Snap.Daily.Days holds the shard's day rows from DaysFrom on; a session
// already holds the ones before (Frontend). The Daily headline (Average,
// Max, MaxDay, MaxDominantFamily) does not cross the wire: the merge
// recomputes it from rows.
type ShardSnapshot struct {
	ShardID  int
	Applied  uint64
	DaysFrom int
	Snap     stream.Snapshot
}

// snapReq is the msgSnap payload. Cursor is the number of day rows the
// session holds less one, since its last held row may still have been
// open then: the shard answers with its rows from min(Cursor, rows−1) on.
// A request carries everything the shard needs, so a shard keeps no
// per-session state and a lost or replayed request is harmless.
type snapReq struct {
	Cursor int
}

func wireSnapReq(c *binenc.Codec, r *snapReq) {
	binenc.Int(c, &r.Cursor)
}

// wireSnapshot is the msgSnapResp payload.
func wireSnapshot(c *binenc.Codec, s *ShardSnapshot) {
	binenc.Int(c, &s.ShardID)
	binenc.Uint(c, &s.Applied)
	sn := &s.Snap

	binenc.Int(c, &sn.Ingested)
	c.Time(&sn.FirstStart)
	c.Time(&sn.LastStart)
	binenc.Int(c, &sn.ActiveAttacks)

	binenc.Len(c, &sn.Protocols, 2)
	for i := range sn.Protocols {
		p := &sn.Protocols[i]
		binenc.Int(c, &p.Category)
		binenc.Int(c, &p.Count)
	}

	binenc.Len(c, &sn.FamilyProtocol, 3)
	for i := range sn.FamilyProtocol {
		fp := &sn.FamilyProtocol[i]
		binenc.Int(c, &fp.Category)
		binenc.Str(c, &fp.Family)
		binenc.Int(c, &fp.Count)
	}

	binenc.Int(c, &s.DaysFrom)
	wireDays(c, &sn.Daily.Days)
	wireSummary(c, &sn.Intervals.Summary)
	c.F64(&sn.Intervals.SimultaneousFrac)
	c.F64(&sn.Intervals.ExactZeroFrac)
	wireSummary(c, &sn.Durations.Summary)
	c.F64(&sn.Durations.FracUnder4h)
	c.F64(&sn.Durations.FracUnder60s)
	binenc.Int(c, &sn.Load.Peak)
	c.Time(&sn.Load.PeakTime)
	c.F64(&sn.Load.TimeWeightedMean)
	wireCollab(c, &sn.Collaborations)
}

func wireDays(c *binenc.Codec, days *[]core.DailyCount) {
	binenc.Len(c, days, 3)
	for i := range *days {
		dc := &(*days)[i]
		c.Time(&dc.Day)
		binenc.Int(c, &dc.Count)
		binenc.Counts(c, &dc.ByFamily)
	}
}

func wireSummary(c *binenc.Codec, s *stats.Summary) {
	binenc.Int(c, &s.N)
	c.F64(&s.Mean)
	c.F64(&s.Median)
	c.F64(&s.StdDev)
	c.F64(&s.Min)
	c.F64(&s.Max)
	c.F64(&s.P80)
	c.F64(&s.P95)
}

func wireCollab(c *binenc.Codec, s *stream.CollabSummary) {
	binenc.Int(c, &s.TotalIntra)
	binenc.Int(c, &s.TotalInter)
	c.F64(&s.MeanBotnets)
	binenc.Counts(c, &s.Intra)
	binenc.Counts(c, &s.Inter)
	binenc.Counts(c, &s.PairCounts)

	// A candidate costs at least 7 bytes: two lengths, a time, three
	// varints and the bool.
	binenc.Len(c, &s.Recent, 7)
	for i := range s.Recent {
		cand := &s.Recent[i]
		binenc.Str(c, &cand.Target)
		c.Time(&cand.Start)
		binenc.Len(c, &cand.Families, 1)
		for j := range cand.Families {
			binenc.Str(c, &cand.Families[j])
		}
		binenc.Int(c, &cand.Botnets)
		binenc.Int(c, &cand.Attacks)
		binenc.Uint(c, &cand.Seq)
		c.Bool(&cand.Open)
	}
	binenc.Int(c, &s.OpenWindows)
	binenc.Int(c, &s.Qualified)
	binenc.Int(c, &s.BotnetTotal)
}

// MergeSnapshots reassembles a single-process stream.Snapshot from shard
// partials. The scalar half comes verbatim from the most advanced shard
// (highest Ingested, ties to the lowest shard id) — every up-to-date shard
// replicated the identical tick stream, so their scalars are bit-identical
// and any one of them is the global truth. The keyed half goes back into
// the accumulators in internal/core that every shard rendered it from —
// each a sum over the disjoint target partitions — so the merged snapshot
// is byte-identical to the one a single analyzer over the whole feed would
// produce, for any shard count.
//
// Snapshots must be sorted by ShardID (the frontend's fan-out preserves
// that order) and carry their whole day series (DaysFrom 0). An empty
// input or an all-empty cluster yields the zero snapshot, matching an
// analyzer that has ingested nothing.
func MergeSnapshots(snaps []*ShardSnapshot) stream.Snapshot {
	var daily core.DailyMerge
	return mergeSnapshots(snaps, &daily)
}

// mergeSnapshots is MergeSnapshots with Fig 2 merged by daily, which
// holds the closed days of the same non-nil snapshots' shards from one
// call to the next.
func mergeSnapshots(snaps []*ShardSnapshot, daily *core.DailyMerge) stream.Snapshot {
	var out stream.Snapshot
	var src *ShardSnapshot
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if src == nil || s.Snap.Ingested > src.Snap.Ingested {
			src = s
		}
	}
	if src == nil || src.Snap.Ingested == 0 {
		return out
	}

	// Global scalar statistics: verbatim from the most advanced shard.
	out.Ingested = src.Snap.Ingested
	out.FirstStart = src.Snap.FirstStart
	out.LastStart = src.Snap.LastStart
	out.ActiveAttacks = src.Snap.ActiveAttacks
	out.Intervals = src.Snap.Intervals
	out.Durations = src.Snap.Durations
	out.Load = src.Snap.Load

	var types core.TypeCounts
	parts := make([]core.DailyPart, 0, len(snaps))
	collab := make([]*stream.CollabSummary, 0, len(snaps))
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, fp := range s.Snap.FamilyProtocol {
			types.Add(fp.Category, fp.Family, fp.Count)
		}
		parts = append(parts, core.DailyPart{Days: s.Snap.Daily.Days, Through: s.Snap.LastStart})
		collab = append(collab, &s.Snap.Collaborations)
	}
	out.Protocols = types.Protocols()
	out.FamilyProtocol = types.FamilyProtocol()
	out.Daily = daily.Merge(parts)
	out.Collaborations = stream.MergeCollab(collab...)
	return out
}
