package cluster

import (
	"botscope/internal/binenc"
	"botscope/internal/core"
	"botscope/internal/stream"
)

// ShardSnapshot is one shard's contribution to a merged live view: the
// shard's identity, how many records of the global stream it has covered,
// and its partition's stream.Snapshot — the per-target half (Protocols,
// FamilyProtocol, Daily, Collaborations) over the shard's target
// partition, with Ingested the records covered and LastStart their horizon.
// The whole-feed half is the frontend's own (stream.Scalars) and never
// crosses the wire.
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
	c.Time(&sn.LastStart)

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

// MergeSnapshots reassembles the per-target half of a single-process
// stream.Snapshot from shard partials. Each field goes back into the
// accumulator in internal/core that every shard rendered it from — a sum
// over the disjoint target partitions — so the merged half is
// byte-identical to the one a single analyzer over the whole feed would
// produce, for any shard count. Ingested and LastStart are the most
// advanced partial's; the other whole-feed fields stay zero, for the
// frontend's stream.Scalars to fill.
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
	var types core.TypeCounts
	parts := make([]core.DailyPart, 0, len(snaps))
	collab := make([]*stream.CollabSummary, 0, len(snaps))
	for _, s := range snaps {
		if s == nil {
			continue
		}
		out.Ingested = max(out.Ingested, s.Snap.Ingested)
		if s.Snap.LastStart.After(out.LastStart) {
			out.LastStart = s.Snap.LastStart
		}
		for _, fp := range s.Snap.FamilyProtocol {
			types.Add(fp.Category, fp.Family, fp.Count)
		}
		parts = append(parts, core.DailyPart{Days: s.Snap.Daily.Days, Through: s.Snap.LastStart})
		collab = append(collab, &s.Snap.Collaborations)
	}
	if out.Ingested == 0 {
		return stream.Snapshot{}
	}
	out.Protocols = types.Protocols()
	out.FamilyProtocol = types.FamilyProtocol()
	out.Daily = daily.Merge(parts)
	out.Collaborations = stream.MergeCollab(collab...)
	return out
}
