package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"sort"
	"time"

	"botscope/internal/dataset"
)

// The paper closes §V with a defense insight: "if we could model the
// consecutive patterns of DDoS attacks, then the defender could leverage
// this information to prepare for the next rounds of attacks, e.g., by
// utilizing a blacklist." This file implements that proposal so its
// effectiveness can be evaluated on the workload: blacklists built from
// observed attack history, scored by how much of the *future* attack
// traffic they would have pre-blocked.

// BlacklistEntry is one bot in a defense blacklist, ranked by how often it
// participated in observed attacks.
type BlacklistEntry struct {
	IP netip.Addr
	// Occurrences is the number of attacks the bot joined during the
	// observation window.
	Occurrences int
	// Families is the number of distinct families the bot served — bots
	// serving several families are strong blacklist candidates.
	Families int
}

// Blacklist is an ordered bot blacklist with fast membership checks. It
// stays in the dense-id space of the store it was ranked over: a bot is
// listed when its position in the full ranking falls inside entries, so a
// truncated list is the same rank array behind a shorter entries prefix.
// Both are read-only after BuildBlacklist returns.
type Blacklist struct {
	entries []BlacklistEntry
	ix      *dataset.BotIndex // the index rank is addressed by; nil only in the zero Blacklist
	rank    []int32           // dense id -> position in the full ranking, -1 unlisted
}

// Len returns the number of blacklisted IPs.
func (b *Blacklist) Len() int { return len(b.entries) }

// Entries returns the ranked entries (most active first). The slice is
// shared and must not be modified.
//
//botscope:shared
func (b *Blacklist) Entries() []BlacklistEntry { return b.entries }

// Contains reports whether ip is blacklisted. It is the one membership
// test that starts from an address, so it alone pays for the index's
// reverse map. The unsigned compare rejects -1 and truncated positions.
func (b *Blacklist) Contains(ip netip.Addr) bool {
	if b.ix == nil {
		return false
	}
	id, ok := b.ix.ID(ip)
	return ok && uint32(b.rank[id]) < uint32(len(b.entries))
}

// Truncate returns a blacklist keeping only the top maxSize entries.
// Entries are already ranked, so this equals rebuilding with
// BuildBlacklist(..., maxSize) without rescanning the workload; the entry
// slice and the rank array are shared with the receiver. maxSize <= 0 or
// >= Len returns the receiver unchanged.
func (b *Blacklist) Truncate(maxSize int) *Blacklist {
	if maxSize <= 0 || maxSize >= len(b.entries) {
		return b
	}
	// Clip capacity with a three-index slice: the truncated list shares the
	// receiver's backing array, and a later append through the short view
	// would otherwise clobber the receiver's tail entries in place.
	return &Blacklist{entries: b.entries[:maxSize:maxSize], ix: b.ix, rank: b.rank}
}

// rankRec is one bot in the ranking sort, packed so that a compare is a
// few integer tests. key is occurrences<<32 | families<<8 | ^BitLen: the
// larger key ranks first, the shorter address family first among ties.
type rankRec struct {
	key    uint64
	hi, lo uint64 // the address as a 128-bit integer (netip.Addr.As16)
	id     int32
}

// BuildBlacklist ranks every bot seen in attacks starting inside
// [from, to) by participation and keeps the top maxSize entries
// (0 = keep everything). Zero times extend to the workload bounds.
//
// Accumulation runs over the store's dense bot index: a counts array plus
// a per-bot family bitset. The ranking order is occurrences, then
// families, both descending, then netip.Addr.Compare ascending — total,
// since dense ids are distinct addresses — and the address leg is compared
// the way Compare does (bit length, then the 128-bit value), falling back
// to Compare itself only for addresses that differ in zone alone.
func BuildBlacklist(s *dataset.Store, from, to time.Time, maxSize int) (*Blacklist, error) {
	n := s.AttackRows()
	if n == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	ix := s.BotDense()
	fams := s.Families()
	famBit := make(map[dataset.Family]int, len(fams))
	for i, f := range fams {
		famBit[f] = i
	}
	famWords := (len(fams) + 63) / 64
	counts := make([]int32, ix.NumIDs())
	famSets := make([]uint64, ix.NumIDs()*famWords)
	for i := 0; i < n; i++ {
		v := s.AttackAt(i)
		if !from.IsZero() && v.Start().Before(from) {
			continue
		}
		if !to.IsZero() && !v.Start().Before(to) {
			continue
		}
		bit := famBit[v.Family()]
		word, mask := bit/64, uint64(1)<<(bit%64)
		for _, id := range ix.RefsRow(i) {
			counts[id]++
			famSets[int(id)*famWords+word] |= mask
		}
	}
	total := 0
	for _, c := range counts {
		if c > 0 {
			total++
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("core: no attacks inside the training window")
	}
	recs := make([]rankRec, 0, total)
	for id, c := range counts {
		if c == 0 {
			continue
		}
		nf := 0
		for w := 0; w < famWords; w++ {
			nf += bits.OnesCount64(famSets[id*famWords+w])
		}
		ip := ix.IP(int32(id))
		b := ip.As16()
		recs = append(recs, rankRec{
			key: uint64(c)<<32 | uint64(nf)<<8 | uint64(^uint8(ip.BitLen())), id: int32(id),
			hi: binary.BigEndian.Uint64(b[:8]), lo: binary.BigEndian.Uint64(b[8:]),
		})
	}
	slices.SortFunc(recs, func(a, b rankRec) int {
		switch {
		case a.key != b.key:
			return cmp.Compare(b.key, a.key)
		case a.hi != b.hi:
			return cmp.Compare(a.hi, b.hi)
		case a.lo != b.lo:
			return cmp.Compare(a.lo, b.lo)
		}
		return ix.IP(a.id).Compare(ix.IP(b.id))
	})
	rank := make([]int32, len(counts))
	for id := range rank {
		rank[id] = -1
	}
	for pos, r := range recs {
		rank[r.id] = int32(pos)
	}
	if maxSize > 0 && len(recs) > maxSize {
		recs = recs[:maxSize]
	}
	entries := make([]BlacklistEntry, len(recs))
	for pos, r := range recs {
		entries[pos] = BlacklistEntry{IP: ix.IP(r.id), Occurrences: int(r.key >> 32), Families: int(uint32(r.key) >> 8)}
	}
	return &Blacklist{entries: entries, ix: ix, rank: rank}, nil
}

// BlacklistEvaluation scores a blacklist against a held-out attack window.
type BlacklistEvaluation struct {
	// Attacks is the number of evaluated future attacks.
	Attacks int
	// BotCoverage is the fraction of future bot participations the
	// blacklist would have pre-blocked.
	BotCoverage float64
	// AttacksBlunted is the fraction of future attacks losing at least
	// half their sources to the blacklist.
	AttacksBlunted float64
	// MedianCoverage is the median per-attack blocked fraction.
	MedianCoverage float64
}

// EvaluateBlacklist replays the attacks starting inside [from, to) against
// the blacklist. Zero times extend to the workload bounds.
//
// The replay tests each of the millions of bot references with one load
// from a rank array addressed by s's dense ids. Against the store the
// list was built on that is the list's own array, untouched. A list built
// on another store is first projected onto s's ids by address; entries s
// never saw cannot match any reference, so dropping them changes nothing.
func EvaluateBlacklist(s *dataset.Store, bl *Blacklist, from, to time.Time) (BlacklistEvaluation, error) {
	if bl == nil || bl.Len() == 0 {
		return BlacklistEvaluation{}, fmt.Errorf("core: empty blacklist")
	}
	ix := s.BotDense()
	rank, limit := bl.rank, uint32(len(bl.entries))
	if bl.ix != ix {
		rank = make([]int32, ix.NumIDs())
		for id := range rank {
			rank[id] = -1
		}
		for pos, e := range bl.entries {
			if id, ok := ix.ID(e.IP); ok {
				rank[id] = int32(pos)
			}
		}
	}
	var (
		out     BlacklistEvaluation
		refs    int
		blocked int
	)
	perAttack := make([]float64, 0, s.NumAttacks())
	for i, n := 0, s.AttackRows(); i < n; i++ {
		v := s.AttackAt(i)
		if !from.IsZero() && v.Start().Before(from) {
			continue
		}
		if !to.IsZero() && !v.Start().Before(to) {
			continue
		}
		out.Attacks++
		hit := 0
		span := ix.RefsRow(i)
		for _, id := range span {
			if uint32(rank[id]) < limit {
				hit++
			}
		}
		refs += len(span)
		blocked += hit
		frac := float64(hit) / float64(len(span))
		perAttack = append(perAttack, frac)
		if frac >= 0.5 {
			out.AttacksBlunted++
		}
	}
	if out.Attacks == 0 {
		return BlacklistEvaluation{}, fmt.Errorf("core: no attacks inside the evaluation window")
	}
	out.BotCoverage = float64(blocked) / float64(refs)
	out.AttacksBlunted /= float64(out.Attacks)
	sort.Float64s(perAttack)
	out.MedianCoverage = perAttack[len(perAttack)/2]
	return out, nil
}

// MitigationWindow is the §III-D deployment insight for one repeat target:
// when to have defenses armed, derived from the target's gap distribution.
type MitigationWindow struct {
	Target string
	// LastSeen is the end of the target's most recent attack.
	LastSeen time.Time
	// ExpectedNext is the forecast start of the next attack.
	ExpectedNext time.Time
	// ArmFrom/ArmUntil bound the suggested high-alert window (the 25th to
	// 95th percentile of historical gaps after the last attack).
	ArmFrom  time.Time
	ArmUntil time.Time
	// HistoryGaps is the number of gaps backing the estimate.
	HistoryGaps int
}

// PlanMitigation builds mitigation windows for every target attacked at
// least minAttacks times, ordered by how soon defenses should be armed.
func PlanMitigation(s *dataset.Store, minAttacks int) []MitigationWindow {
	if minAttacks < 3 {
		minAttacks = 3
	}
	var out []MitigationWindow
	for _, tid := range s.TargetIDs() {
		rows := s.TargetRows(tid)
		if len(rows) < minAttacks {
			continue
		}
		gaps := rowIntervals(s, rows)
		sorted := append([]float64(nil), gaps...)
		sort.Float64s(sorted)
		q := func(p float64) float64 {
			idx := int(p * float64(len(sorted)-1))
			return sorted[idx]
		}
		last := s.AttackAt(int(rows[len(rows)-1]))
		median := q(0.5)
		// Pad the window by 10% of the median gap (at least 5 minutes) so
		// perfectly periodic targets still get a usable alert interval.
		pad := time.Duration(median * 0.1 * float64(time.Second))
		if pad < 5*time.Minute {
			pad = 5 * time.Minute
		}
		out = append(out, MitigationWindow{
			Target:       s.TargetAddr(tid).String(),
			LastSeen:     last.End(),
			ExpectedNext: last.Start().Add(time.Duration(median * float64(time.Second))),
			ArmFrom:      last.Start().Add(time.Duration(q(0.25)*float64(time.Second)) - pad),
			ArmUntil:     last.Start().Add(time.Duration(q(0.95)*float64(time.Second)) + pad),
			HistoryGaps:  len(gaps),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].ArmFrom.Equal(out[j].ArmFrom) {
			return out[i].ArmFrom.Before(out[j].ArmFrom)
		}
		return out[i].Target < out[j].Target
	})
	return out
}
