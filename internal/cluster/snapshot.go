package cluster

import (
	"net/netip"
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

// maxRecent mirrors internal/stream's bound on the live candidate ring.
const maxRecent = 32

// MergeSnapshots reassembles a single-process stream.Snapshot from shard
// partials. The scalar half comes verbatim from the most advanced shard
// (highest Ingested, ties to the lowest shard id) — every up-to-date shard
// replicated the identical tick stream, so their scalars are bit-identical
// and any one of them is the global truth. The keyed half is summed across
// the disjoint target partitions and reordered with exactly the tie rules
// internal/stream applies, so the merged snapshot is byte-identical to the
// one a single analyzer over the whole feed would produce, for any shard
// count.
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

	out.Protocols = mergeProtocols(snaps)
	out.FamilyProtocol = mergeFamilyProtocol(snaps)
	out.Daily = mergeDaily(snaps)
	out.Collaborations = mergeCollab(snaps)
	return out
}

// mergeProtocols sums the per-category counts and rebuilds the breakdown
// with core.ProtocolBreakdown's ordering: count descending, ties by
// category display order.
func mergeProtocols(snaps []*ShardSnapshot) []core.ProtocolCount {
	counts := make(map[dataset.Category]int)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, p := range s.Snap.Protocols {
			counts[p.Category] += p.Count
		}
	}
	out := make([]core.ProtocolCount, 0, len(counts))
	for _, c := range dataset.Categories {
		if counts[c] > 0 {
			out = append(out, core.ProtocolCount{Category: c, Count: counts[c]})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// mergeFamilyProtocol sums the per-(category, family) counts and rebuilds
// the Table II ordering: categories in display order, families
// alphabetically inside each.
func mergeFamilyProtocol(snaps []*ShardSnapshot) []core.FamilyProtocolRow {
	counts := make(map[dataset.Category]map[dataset.Family]int)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, fp := range s.Snap.FamilyProtocol {
			m := counts[fp.Category]
			if m == nil {
				m = make(map[dataset.Family]int)
				counts[fp.Category] = m
			}
			m[fp.Family] += fp.Count
		}
	}
	var out []core.FamilyProtocolRow
	for _, c := range dataset.Categories {
		fams := make([]dataset.Family, 0, len(counts[c]))
		for f := range counts[c] {
			fams = append(fams, f)
		}
		sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
		for _, f := range fams {
			out = append(out, core.FamilyProtocolRow{Category: c, Family: f, Count: counts[c][f]})
		}
	}
	return out
}

// mergeDaily sums the day buckets by calendar day and recomputes the
// headline statistics with the Analyzer's exact tie rules (earliest peak
// day wins; dominant family by count, ties alphabetically; the average
// spans first day through last day inclusive).
func mergeDaily(snaps []*ShardSnapshot) core.DailyStats {
	type bucket struct {
		count    int
		byFamily map[dataset.Family]int
	}
	days := make(map[int64]*bucket)
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for _, dc := range s.Snap.Daily.Days {
			key := dc.Day.UnixNano()
			b := days[key]
			if b == nil {
				b = &bucket{byFamily: make(map[dataset.Family]int)}
				days[key] = b
			}
			b.count += dc.Count
			for f, n := range dc.ByFamily {
				b.byFamily[f] += n
			}
		}
	}

	keys := make([]int64, 0, len(days))
	for k := range days {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	st := core.DailyStats{Days: make([]core.DailyCount, 0, len(keys))}
	total := 0
	for _, k := range keys {
		b := days[k]
		dc := core.DailyCount{
			Day:      time.Unix(0, k).UTC(),
			Count:    b.count,
			ByFamily: make(map[dataset.Family]int, len(b.byFamily)),
		}
		for f, n := range b.byFamily {
			dc.ByFamily[f] = n
		}
		st.Days = append(st.Days, dc)
		total += b.count
		if b.count > st.Max {
			st.Max = b.count
			st.MaxDay = dc.Day
			best, bestN := dataset.Family(""), 0
			for f, n := range b.byFamily {
				if n > bestN || (n == bestN && f < best) {
					best, bestN = f, n
				}
			}
			st.MaxDominantFamily = best
		}
	}
	if len(keys) > 0 {
		span := int(time.Unix(0, keys[len(keys)-1]).UTC().Sub(time.Unix(0, keys[0]).UTC()).Hours()/24) + 1
		st.Average = float64(total) / float64(span)
	}
	return st
}

// mergeCollab sums the Table VI counters over the disjoint target
// partitions and interleaves the candidate rings back into the exact
// order a single tracker emits: closed candidates by global sequence of
// their window's first attack (finalization follows window-creation
// order, which is seq order), then still-open candidates by (start,
// target address) — the snapshot's pending sort.
func mergeCollab(snaps []*ShardSnapshot) stream.CollabSummary {
	out := stream.CollabSummary{
		Intra:      make(map[dataset.Family]int),
		Inter:      make(map[dataset.Family]int),
		PairCounts: make(map[string]int),
	}
	var closed, open []stream.CollabCandidate
	for _, s := range snaps {
		if s == nil {
			continue
		}
		c := &s.Snap.Collaborations
		out.TotalIntra += c.TotalIntra
		out.TotalInter += c.TotalInter
		out.OpenWindows += c.OpenWindows
		out.Qualified += c.Qualified
		out.BotnetTotal += c.BotnetTotal
		for f, n := range c.Intra {
			out.Intra[f] += n
		}
		for f, n := range c.Inter {
			out.Inter[f] += n
		}
		for p, n := range c.PairCounts {
			out.PairCounts[p] += n
		}
		for _, cand := range c.Recent {
			if cand.Open {
				open = append(open, cand)
			} else {
				closed = append(closed, cand)
			}
		}
	}
	sort.Slice(closed, func(i, j int) bool { return closed[i].Seq < closed[j].Seq })
	sort.Slice(open, func(i, j int) bool {
		if !open[i].Start.Equal(open[j].Start) {
			return open[i].Start.Before(open[j].Start)
		}
		return lessTarget(open[i].Target, open[j].Target)
	})
	out.Recent = append(closed, open...)
	if len(out.Recent) > maxRecent {
		out.Recent = out.Recent[len(out.Recent)-maxRecent:]
	}
	if len(out.Recent) == 0 {
		// A single-process snapshot reports null, not [], when no
		// candidates exist; keep the merged JSON identical.
		out.Recent = nil
	}
	if out.Qualified > 0 {
		out.MeanBotnets = float64(out.BotnetTotal) / float64(out.Qualified)
	}
	return out
}

// lessTarget orders candidate targets the way the tracker's pending sort
// does — by address value, not lexically ("9.0.0.1" sorts before
// "10.0.0.1"). Unparseable targets fall back to string order.
func lessTarget(a, b string) bool {
	ia, errA := netip.ParseAddr(a)
	ib, errB := netip.ParseAddr(b)
	if errA != nil || errB != nil {
		return a < b
	}
	return ia.Less(ib)
}
