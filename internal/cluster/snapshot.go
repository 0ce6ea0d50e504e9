package cluster

import (
	"sort"
	"time"

	"botscope/internal/binenc"
	"botscope/internal/core"
	"botscope/internal/dataset"
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
type ShardSnapshot struct {
	ShardID int
	Applied uint64
	Snap    stream.Snapshot
}

// encodeSnapshot appends s's wire encoding. Every float crosses as its
// IEEE-754 bits and every time as UTC unix-nanoseconds, so the frontend
// reconstructs values bit-exactly.
//
//botvet:codec encode snapshot
func encodeSnapshot(w *binenc.Writer, s *ShardSnapshot) {
	w.Varint(int64(s.ShardID))
	w.Uvarint(s.Applied)
	sn := &s.Snap

	w.Varint(int64(sn.Ingested))
	w.Varint(sn.FirstStart.UnixNano())
	w.Varint(sn.LastStart.UnixNano())
	w.Varint(int64(sn.ActiveAttacks))

	w.Uvarint(uint64(len(sn.Protocols)))
	for _, p := range sn.Protocols {
		w.Varint(int64(p.Category))
		w.Varint(int64(p.Count))
	}

	w.Uvarint(uint64(len(sn.FamilyProtocol)))
	for _, fp := range sn.FamilyProtocol {
		w.Varint(int64(fp.Category))
		w.Str(string(fp.Family))
		w.Varint(int64(fp.Count))
	}

	encodeDaily(w, &sn.Daily)
	encodeSummary(w, &sn.Intervals.Summary)
	w.F64(sn.Intervals.SimultaneousFrac)
	w.F64(sn.Intervals.ExactZeroFrac)
	encodeSummary(w, &sn.Durations.Summary)
	w.F64(sn.Durations.FracUnder4h)
	w.F64(sn.Durations.FracUnder60s)
	w.Varint(int64(sn.Load.Peak))
	w.Varint(sn.Load.PeakTime.UnixNano())
	w.F64(sn.Load.TimeWeightedMean)
	encodeCollab(w, &sn.Collaborations)
}

//botvet:codec encode daily
func encodeDaily(w *binenc.Writer, d *core.DailyStats) {
	w.F64(d.Average)
	w.Varint(int64(d.Max))
	w.Varint(d.MaxDay.UnixNano())
	w.Str(string(d.MaxDominantFamily))
	w.Uvarint(uint64(len(d.Days)))
	for _, dc := range d.Days {
		w.Varint(dc.Day.UnixNano())
		w.Varint(int64(dc.Count))
		encodeFamilyCounts(w, dc.ByFamily)
	}
}

//botvet:codec encode summary
func encodeSummary(w *binenc.Writer, s *stats.Summary) {
	w.Varint(int64(s.N))
	w.F64(s.Mean)
	w.F64(s.Median)
	w.F64(s.StdDev)
	w.F64(s.Min)
	w.F64(s.Max)
	w.F64(s.P80)
	w.F64(s.P95)
}

//botvet:codec encode collab
func encodeCollab(w *binenc.Writer, c *stream.CollabSummary) {
	w.Varint(int64(c.TotalIntra))
	w.Varint(int64(c.TotalInter))
	w.F64(c.MeanBotnets)
	encodeFamilyCounts(w, c.Intra)
	encodeFamilyCounts(w, c.Inter)

	pairs := make([]string, 0, len(c.PairCounts))
	for p := range c.PairCounts {
		pairs = append(pairs, p)
	}
	sort.Strings(pairs)
	w.Uvarint(uint64(len(pairs)))
	for _, p := range pairs {
		w.Str(p)
		w.Varint(int64(c.PairCounts[p]))
	}

	w.Uvarint(uint64(len(c.Recent)))
	for _, cand := range c.Recent {
		w.Str(cand.Target)
		w.Varint(cand.Start.UnixNano())
		w.Uvarint(uint64(len(cand.Families)))
		for _, f := range cand.Families {
			w.Str(string(f))
		}
		w.Varint(int64(cand.Botnets))
		w.Varint(int64(cand.Attacks))
		w.Uvarint(cand.Seq)
		w.Bool(cand.Open)
	}
	w.Varint(int64(c.OpenWindows))
	w.Varint(int64(c.Qualified))
	w.Varint(int64(c.BotnetTotal))
}

// encodeFamilyCounts writes a family→count map in sorted-family order so
// the encoding is deterministic regardless of map iteration.
//
//botvet:codec encode familyCounts
func encodeFamilyCounts(w *binenc.Writer, m map[dataset.Family]int) {
	fams := make([]dataset.Family, 0, len(m))
	for f := range m {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
	w.Uvarint(uint64(len(fams)))
	for _, f := range fams {
		w.Str(string(f))
		w.Varint(int64(m[f]))
	}
}

// decodeSnapshot parses a msgSnapResp payload.
//
//botvet:codec decode snapshot
func decodeSnapshot(payload []byte) (ShardSnapshot, error) {
	r := &binenc.Reader{Buf: payload}
	var s ShardSnapshot
	s.ShardID = int(r.Varint())
	s.Applied = r.Uvarint()
	sn := &s.Snap

	sn.Ingested = int(r.Varint())
	sn.FirstStart = wireTime(r.Varint())
	sn.LastStart = wireTime(r.Varint())
	sn.ActiveAttacks = int(r.Varint())

	n := r.Count(2)
	for i := 0; i < n && r.Err == nil; i++ {
		sn.Protocols = append(sn.Protocols, core.ProtocolCount{
			Category: dataset.Category(r.Varint()),
			Count:    int(r.Varint()),
		})
	}

	n = r.Count(3)
	for i := 0; i < n && r.Err == nil; i++ {
		sn.FamilyProtocol = append(sn.FamilyProtocol, core.FamilyProtocolRow{
			Category: dataset.Category(r.Varint()),
			Family:   dataset.Family(r.Str()),
			Count:    int(r.Varint()),
		})
	}

	decodeDaily(r, &sn.Daily)
	decodeSummary(r, &sn.Intervals.Summary)
	sn.Intervals.SimultaneousFrac = r.F64()
	sn.Intervals.ExactZeroFrac = r.F64()
	decodeSummary(r, &sn.Durations.Summary)
	sn.Durations.FracUnder4h = r.F64()
	sn.Durations.FracUnder60s = r.F64()
	sn.Load.Peak = int(r.Varint())
	sn.Load.PeakTime = wireTime(r.Varint())
	sn.Load.TimeWeightedMean = r.F64()
	decodeCollab(r, &sn.Collaborations)
	return s, payloadErr(r)
}

// wireTime reconstructs a wire timestamp; the zero time round-trips as
// itself so "never set" survives the trip.
func wireTime(nanos int64) time.Time {
	var zero time.Time
	if nanos == zero.UnixNano() {
		return zero
	}
	return time.Unix(0, nanos).UTC()
}

//botvet:codec decode daily
func decodeDaily(r *binenc.Reader, d *core.DailyStats) {
	d.Average = r.F64()
	d.Max = int(r.Varint())
	d.MaxDay = wireTime(r.Varint())
	d.MaxDominantFamily = dataset.Family(r.Str())
	n := r.Count(3)
	for i := 0; i < n && r.Err == nil; i++ {
		dc := core.DailyCount{
			Day:      wireTime(r.Varint()),
			Count:    int(r.Varint()),
			ByFamily: decodeFamilyCounts(r),
		}
		d.Days = append(d.Days, dc)
	}
}

//botvet:codec decode summary
func decodeSummary(r *binenc.Reader, s *stats.Summary) {
	s.N = int(r.Varint())
	s.Mean = r.F64()
	s.Median = r.F64()
	s.StdDev = r.F64()
	s.Min = r.F64()
	s.Max = r.F64()
	s.P80 = r.F64()
	s.P95 = r.F64()
}

//botvet:codec decode collab
func decodeCollab(r *binenc.Reader, c *stream.CollabSummary) {
	c.TotalIntra = int(r.Varint())
	c.TotalInter = int(r.Varint())
	c.MeanBotnets = r.F64()
	c.Intra = decodeFamilyCounts(r)
	c.Inter = decodeFamilyCounts(r)

	n := r.Count(2)
	c.PairCounts = make(map[string]int, n)
	for i := 0; i < n && r.Err == nil; i++ {
		p := r.Str()
		c.PairCounts[p] = int(r.Varint())
	}

	n = r.Count(6)
	for i := 0; i < n && r.Err == nil; i++ {
		cand := stream.CollabCandidate{
			Target: r.Str(),
			Start:  wireTime(r.Varint()),
		}
		fn := r.Count(1)
		for j := 0; j < fn && r.Err == nil; j++ {
			cand.Families = append(cand.Families, dataset.Family(r.Str()))
		}
		cand.Botnets = int(r.Varint())
		cand.Attacks = int(r.Varint())
		cand.Seq = r.Uvarint()
		cand.Open = r.Bool()
		c.Recent = append(c.Recent, cand)
	}
	c.OpenWindows = int(r.Varint())
	c.Qualified = int(r.Varint())
	c.BotnetTotal = int(r.Varint())
}

//botvet:codec decode familyCounts
func decodeFamilyCounts(r *binenc.Reader) map[dataset.Family]int {
	n := r.Count(2)
	m := make(map[dataset.Family]int, n)
	for i := 0; i < n && r.Err == nil; i++ {
		f := dataset.Family(r.Str())
		m[f] = int(r.Varint())
	}
	return m
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
// that order). An empty input or an all-empty cluster yields the zero
// snapshot, matching an analyzer that has ingested nothing.
func MergeSnapshots(snaps []*ShardSnapshot) stream.Snapshot {
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
	daily := make([]core.DailyStats, 0, len(snaps))
	collab := make([]*stream.CollabSummary, 0, len(snaps))
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, fp := range s.Snap.FamilyProtocol {
			types.Add(fp.Category, fp.Family, fp.Count)
		}
		daily = append(daily, s.Snap.Daily)
		collab = append(collab, &s.Snap.Collaborations)
	}
	out.Protocols = types.Protocols()
	out.FamilyProtocol = types.FamilyProtocol()
	out.Daily = core.MergeDaily(daily...)
	out.Collaborations = stream.MergeCollab(collab...)
	return out
}
