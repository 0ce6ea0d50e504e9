package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"sort"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/memo"
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
// listed when its position in the full ranking falls inside the listed
// prefix, so a truncated list is the same rank array behind a shorter
// prefix. Everything is read-only after BuildBlacklist returns; the
// entries are built from the ranking the first time they are read.
type Blacklist struct {
	ranked  []rankRec         // the listed prefix of the ranking, most active first
	ix      *dataset.BotIndex // the index rank is addressed by; nil only in the zero Blacklist
	rank    []int32           // dense id -> position in the full ranking, -1 unlisted
	entries memo.Lazy[[]BlacklistEntry]
}

// Len returns the number of blacklisted IPs.
func (b *Blacklist) Len() int { return len(b.ranked) }

// Entries returns the ranked entries (most active first).
func (b *Blacklist) Entries() memo.View[BlacklistEntry] {
	return memo.ViewOf(b.entries.Get(b.buildEntries))
}

func (b *Blacklist) buildEntries() []BlacklistEntry {
	entries := make([]BlacklistEntry, len(b.ranked))
	for pos, r := range b.ranked {
		key := ^r.w[2]
		entries[pos] = BlacklistEntry{IP: b.ix.IP(r.id), Occurrences: int(key >> 32), Families: int(uint32(key) >> 8)}
	}
	return entries
}

// Truncate returns a blacklist keeping only the top maxSize entries.
// Entries are already ranked, so this equals rebuilding with
// BuildBlacklist(..., maxSize) without rescanning the workload; the
// ranking and the rank array are shared with the receiver. maxSize <= 0
// or >= Len returns the receiver unchanged.
func (b *Blacklist) Truncate(maxSize int) *Blacklist {
	if maxSize <= 0 || maxSize >= len(b.ranked) {
		return b
	}
	return &Blacklist{ranked: b.ranked[:maxSize], ix: b.ix, rank: b.rank}
}

// rankRec is one bot in the ranking. Its words, least significant first,
// are the address as a 128-bit integer (lo, hi of netip.Addr.As16) and
// ^key, where key is occurrences<<32 | families<<8 | ^BitLen: ascending
// (w[2], w[1], w[0]) is the ranking order, larger key first and the
// shorter address family first among ties.
type rankRec struct {
	w  [3]uint64
	id int32
}

// BuildBlacklist ranks every bot seen in attacks starting inside
// [from, to) by participation and keeps the top maxSize entries
// (0 = keep everything). Zero times extend to the workload bounds.
//
// Accumulation runs over the store's dense bot index: a counts array plus
// a per-bot family bitset. The ranking order is occurrences, then
// families, both descending, then netip.Addr.Compare ascending — total,
// since dense ids are distinct addresses — and the address leg is compared
// the way Compare does for zone-free addresses (bit length, then the
// 128-bit value).
func BuildBlacklist(s *dataset.Store, from, to time.Time, maxSize int) (*Blacklist, error) {
	n := s.NumAttacks()
	if n == 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	ix := s.BotDense()
	fams := s.Families()
	famBit := make(map[dataset.Family]int, fams.Len())
	for i, f := range fams.All() {
		famBit[f] = i
	}
	famWords := (fams.Len() + 63) / 64
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
		span := ix.RefsRow(i)
		for k := 0; k < span.Len(); k++ {
			id := span.At(k)
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
		key := uint64(c)<<32 | uint64(nf)<<8 | uint64(^uint8(ip.BitLen()))
		recs = append(recs, rankRec{
			w:  [3]uint64{binary.BigEndian.Uint64(b[8:]), binary.BigEndian.Uint64(b[:8]), ^key},
			id: int32(id),
		})
	}
	recs = sortRanking(recs)
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
	return &Blacklist{ranked: recs, ix: ix, rank: rank}, nil
}

// sortRanking returns recs in ascending (w[2], w[1], w[0]) order, in recs
// or in a second buffer of the same length. It is a least-significant-
// digit radix sort over bytes: stable counting passes from w[0]'s low
// byte up, skipping every byte all the records share, which no pass could
// reorder. Ranked bots differ mostly in the low address bytes and the
// count, so a handful of passes remain.
func sortRanking(recs []rankRec) []rankRec {
	tmp := make([]rankRec, len(recs))
	var varies [3]uint64
	for _, r := range recs {
		for w := range varies {
			varies[w] |= r.w[w] ^ recs[0].w[w]
		}
	}
	type digit struct {
		w     int
		shift uint
	}
	var hist [24][256]int
	digits := make([]digit, 0, len(hist))
	for w, v := range varies {
		for shift := uint(0); shift < 64; shift += 8 {
			if uint8(v>>shift) != 0 {
				digits = append(digits, digit{w, shift})
			}
		}
	}
	for _, r := range recs {
		for d, g := range digits {
			hist[d][uint8(r.w[g.w]>>g.shift)]++
		}
	}
	for d, g := range digits {
		next := &hist[d]
		pos := 0
		for b, c := range next {
			next[b] = pos
			pos += c
		}
		for _, r := range recs {
			b := uint8(r.w[g.w] >> g.shift)
			tmp[next[b]] = r
			next[b]++
		}
		recs, tmp = tmp, recs
	}
	return recs
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
	rank, limit := bl.rank, uint32(len(bl.ranked))
	if bl.ix != ix {
		rank = make([]int32, ix.NumIDs())
		for id := range rank {
			rank[id] = -1
		}
		for pos, r := range bl.ranked {
			if id, ok := ix.ID(bl.ix.IP(r.id)); ok {
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
	for i, n := 0, s.NumAttacks(); i < n; i++ {
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
		for k := 0; k < span.Len(); k++ {
			if uint32(rank[span.At(k)]) < limit {
				hit++
			}
		}
		refs += span.Len()
		blocked += hit
		frac := float64(hit) / float64(span.Len())
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
