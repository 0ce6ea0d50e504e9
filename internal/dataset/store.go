package dataset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"botscope/internal/memo"
	"botscope/internal/par"
)

// Store is an immutable, indexed view over one workload: the attack list
// plus the bot and botnet schemas it references. A Store is safe for
// concurrent readers.
//
// The columns (columns.go) are the store: both constructors — NewStore
// from records, the snapshot decoder from a file — set cols before the
// store is published, and every count, index and bound is answered from
// them. Everything else is a derived product held in a memo.Lazy: built
// once by the first caller that needs it, shared and read-only afterwards
// (TestLazyBuildsOnce pins the type; sharedslice reports a write through
// one of the shared slices). The attack records are one such product — a
// snapshot-loaded store materializes them on first use, a NewStore store
// holds the caller's records, already filled.
type Store struct {
	cols   *Columns    // set at construction, never nil; immutable after
	closed atomic.Bool // set once by Close; the mapping is gone after

	recs     memo.Lazy[[]*Attack] // attack row -> record
	recBuilt atomic.Bool          // recs holds its value: lets RecordsMaterialized and AttackRecordAt ask without building

	fams        memo.Lazy[familyViews]
	targets     memo.Lazy[[]netip.Addr]       // Targets()
	botIdx      memo.Lazy[*BotIndex]          // BotDense()
	famRows     memo.Lazy[map[Family][]int32] // family -> ascending attack rows
	tgtRows     memo.Lazy[targetRows]
	botnetCount memo.Lazy[int] // distinct botnet ids across attacks
	bounds      memo.Lazy[timeBounds]

	snapInfo SnapshotInfo // how the snapshot decoder loaded this store; zero for a NewStore store
}

type familyViews struct {
	families []Family      // sorted
	counts   []FamilyCount // same order
}

type targetRows struct {
	rows  [][]int32 // target id -> ascending attack rows
	order []int32   // target ids in ascending address order
}

type timeBounds struct{ first, last time.Time }

// RecordsMaterialized reports whether Attacks' records exist. A store
// built by NewStore always has them; a snapshot-loaded store only after
// some caller asked for Attacks. The analysis kernels keep it false for a
// full report run.
func (s *Store) RecordsMaterialized() bool { return s.recBuilt.Load() }

// FamilyCount pairs a family with its attack count, ordered by family.
type FamilyCount struct {
	Family  Family
	Attacks int
}

// sortRec packs an attack's sort key next to its pointer so the sort
// compares plain int64s instead of calling time.Time methods through an
// interface, and moves 32-byte records instead of chasing pointers.
type sortRec struct {
	start int64
	id    uint64
	a     *Attack
}

// NewStore validates and sorts a workload, then columnizes it. Bots and
// botnets may be nil when only attack-level analyses are needed. The
// caller's attack records are kept (Attacks returns these very pointers)
// and must not be modified afterwards.
func NewStore(attacks []*Attack, botnets []*Botnet, bots []*Bot) (*Store, error) {
	recs := make([]sortRec, 0, len(attacks))
	seen := make(map[DDoSID]struct{}, len(attacks))
	for _, a := range attacks {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if _, dup := seen[a.ID]; dup {
			return nil, fmt.Errorf("dataset: duplicate ddos_id %d", a.ID)
		}
		seen[a.ID] = struct{}{}
		recs = append(recs, sortRec{start: a.Start.UnixNano(), id: uint64(a.ID), a: a})
	}
	slices.SortFunc(recs, func(x, y sortRec) int {
		if x.start != y.start {
			if x.start < y.start {
				return -1
			}
			return 1
		}
		if x.id < y.id {
			return -1
		}
		return 1
	})
	sorted := make([]*Attack, len(recs))
	for i := range recs {
		sorted[i] = recs[i].a
	}

	netIDs := make(map[BotnetID]struct{}, len(botnets))
	for _, b := range botnets {
		if _, dup := netIDs[b.ID]; dup {
			return nil, fmt.Errorf("dataset: duplicate botnet_id %d", b.ID)
		}
		netIDs[b.ID] = struct{}{}
	}

	botList := make([]*Bot, 0, len(bots))
	rows := make(map[netip.Addr]int32, len(bots))
	for _, b := range bots {
		if row, ok := rows[b.IP]; ok {
			botList[row] = b
			continue
		}
		rows[b.IP] = int32(len(botList))
		botList = append(botList, b)
	}

	s := &Store{
		cols: columnize(sorted, botnets, botList),
		recs: memo.Filled(sorted),
	}
	s.recBuilt.Store(true)
	return s, nil
}

// botRowsByIP maps each Botlist address to its first row, for deriving
// the dense layer. (NewStore's dedupe map holds the same pairs but is not
// kept: a store that never derives its dense layer — one built only to be
// served live over, say — would carry it for nothing.)
func (s *Store) botRowsByIP() map[netip.Addr]int32 {
	bIP := s.cols.bIP
	m := make(map[netip.Addr]int32, bIP.len())
	for i := int32(0); i < int32(bIP.len()); i++ {
		ip := bIP.at(i)
		if _, ok := m[ip]; !ok {
			m[ip] = i
		}
	}
	return m
}

// NumAttacks returns the number of attack records.
func (s *Store) NumAttacks() int { return len(s.cols.aID) }

// Attacks returns all attacks ordered by start time, materializing every
// record on first use. The slice is shared and must not be modified;
// records themselves are shared too.
//
//botscope:shared
func (s *Store) Attacks() []*Attack { return s.recs.Get(s.materializeRecords) }

// NumBots returns the number of Botlist records.
func (s *Store) NumBots() int { return s.cols.bIP.len() }

// NumBotnets returns the number of Botnetlist records.
func (s *Store) NumBotnets() int { return len(s.cols.nID) }

// Families returns every family that launched at least one attack,
// sorted. The slice is computed once and shared: callers must not modify
// it.
//
//botscope:shared
func (s *Store) Families() []Family { return s.fams.Get(s.buildFamilies).families }

// FamilyCounts returns every family with its attack count, sorted by
// family. The slice is computed once and shared: callers must not modify
// it.
//
//botscope:shared
func (s *Store) FamilyCounts() []FamilyCount { return s.fams.Get(s.buildFamilies).counts }

func (s *Store) buildFamilies() familyViews {
	rows := s.famRowsMap()
	fams := make([]Family, 0, len(rows))
	for f := range rows {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i] < fams[j] })
	counts := make([]FamilyCount, len(fams))
	for i, f := range fams {
		counts[i] = FamilyCount{Family: f, Attacks: len(rows[f])}
	}
	return familyViews{families: fams, counts: counts}
}

// famRowsMap returns the family -> ascending-attack-row index over the
// columns, building it once. One counting pass sizes each bucket and one
// fill pass places every row in a shared arena, so the buckets are
// contiguous and the rows within each family stay in (start, id) order.
func (s *Store) famRowsMap() map[Family][]int32 { return s.famRows.Get(s.buildFamRows) }

func (s *Store) buildFamRows() map[Family][]int32 {
	c := s.Cols()
	nStr := len(c.strs)
	counts := make([]int32, nStr)
	for _, f := range c.aFam {
		counts[f]++
	}
	offs := make([]int32, nStr+1) // string id -> arena start
	for i, cnt := range counts {
		offs[i+1] = offs[i] + cnt
	}
	arena := make([]int32, len(c.aFam))
	next := counts // reuse: counts[f] becomes the next write position
	copy(next, offs[:nStr])
	for i, f := range c.aFam {
		arena[next[f]] = int32(i)
		next[f]++
	}
	rows := make(map[Family][]int32, 64)
	for f := 0; f < nStr; f++ {
		lo, hi := offs[f], offs[f+1]
		if lo == hi {
			continue
		}
		rows[Family(c.strs[f])] = arena[lo:hi:hi]
	}
	return rows
}

// Targets returns every attacked IP, sorted. The slice is computed once
// and shared: callers must not modify it.
//
//botscope:shared
func (s *Store) Targets() []netip.Addr { return s.targets.Get(s.buildTargets) }

func (s *Store) buildTargets() []netip.Addr {
	c := s.cols
	out := make([]netip.Addr, 0, len(c.targets))
	for _, tid := range s.TargetIDs() {
		out = append(out, c.targets[tid])
	}
	return out
}

// NumTargets returns the number of distinct attacked IPs.
func (s *Store) NumTargets() int { return len(s.cols.targets) }

// TargetRows returns the ascending attack rows against one column target
// id. The slice is a shared arena bucket and must not be modified.
//
//botscope:shared
//botscope:mmap
func (s *Store) TargetRows(tid int32) []int32 { return s.tgtRows.Get(s.buildTargetRows).rows[tid] }

// TargetIDs returns every column target id, ordered by target address
// (so index i here corresponds to Targets()[i]). The slice is shared and
// must not be modified.
//
//botscope:shared
//botscope:mmap
func (s *Store) TargetIDs() []int32 { return s.tgtRows.Get(s.buildTargetRows).order }

// buildTargetRows buckets attack rows by target id in one counting pass
// and one fill pass over a shared arena, and sorts the target ids by
// address, the order Targets() lists them in.
func (s *Store) buildTargetRows() targetRows {
	c := s.Cols()
	nt := len(c.targets)
	counts := make([]int32, nt)
	for _, tid := range c.aTgt {
		counts[tid]++
	}
	offs := make([]int32, nt+1)
	for i, cnt := range counts {
		offs[i+1] = offs[i] + cnt
	}
	arena := make([]int32, len(c.aTgt))
	next := counts // reuse: counts[tid] becomes the next write position
	copy(next, offs[:nt])
	for i, tid := range c.aTgt {
		arena[next[tid]] = int32(i)
		next[tid]++
	}
	rows := make([][]int32, nt)
	for tid := 0; tid < nt; tid++ {
		lo, hi := offs[tid], offs[tid+1]
		rows[tid] = arena[lo:hi:hi]
	}
	order := make([]int32, nt)
	for i := range order {
		order[i] = int32(i)
	}
	zoned := false
	for _, a := range c.targets {
		if a.Zone() != "" {
			zoned = true
			break
		}
	}
	if zoned {
		sort.Slice(order, func(i, j int) bool {
			return c.targets[order[i]].Less(c.targets[order[j]])
		})
	} else {
		// Zone-free addresses (every synth and snapshot workload)
		// order exactly like netip.Addr.Compare: bit length first,
		// then the 128-bit value — which As16 exposes big-endian. The
		// integer keys make the comparator a few register compares
		// instead of Addr.Less calls.
		hi := make([]uint64, nt)
		lo := make([]uint64, nt)
		bl := make([]uint8, nt)
		for i, a := range c.targets {
			b := a.As16()
			hi[i] = binary.BigEndian.Uint64(b[:8])
			lo[i] = binary.BigEndian.Uint64(b[8:])
			bl[i] = uint8(a.BitLen())
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if bl[a] != bl[b] {
				return bl[a] < bl[b]
			}
			if hi[a] != hi[b] {
				return hi[a] < hi[b]
			}
			return lo[a] < lo[b]
		})
	}
	return targetRows{rows: rows, order: order}
}

// TargetAddr resolves a column target id to its address.
func (s *Store) TargetAddr(tid int32) netip.Addr { return s.Cols().targets[tid] }

// RowsByFamily returns the ascending attack rows of one family. The
// slice is a shared arena bucket and must not be modified.
//
//botscope:shared
//botscope:mmap
func (s *Store) RowsByFamily(f Family) []int32 { return s.famRowsMap()[f] }

// attackBotnets counts the distinct botnet ids that appear across
// attacks (which may be fewer than the Botnetlist rows), memoized.
func (s *Store) attackBotnets() int { return s.botnetCount.Get(s.countAttackBotnets) }

func (s *Store) countAttackBotnets() int {
	seen := make(map[uint32]struct{}, 256)
	for _, id := range s.cols.aBotnet {
		seen[id] = struct{}{}
	}
	return len(seen)
}

// RowsInRange returns the half-open attack row range [lo, hi) whose
// starts fall in [from, to), using the column start ordering.
func (s *Store) RowsInRange(from, to time.Time) (lo, hi int) {
	c := s.Cols()
	fromNS, toNS := from.UnixNano(), to.UnixNano()
	lo = sort.Search(len(c.aStart), func(i int) bool { return c.aStart[i] >= fromNS })
	hi = sort.Search(len(c.aStart), func(i int) bool { return c.aStart[i] >= toNS })
	return lo, hi
}

// TimeBounds returns the earliest start and the latest end across all
// attacks. ok is false for an empty store.
func (s *Store) TimeBounds() (first, last time.Time, ok bool) {
	if len(s.cols.aStart) == 0 {
		return time.Time{}, time.Time{}, false
	}
	b := s.bounds.Get(s.buildBounds)
	return b.first, b.last, true
}

func (s *Store) buildBounds() timeBounds {
	return timeBounds{nanoTime(s.cols.aStart[0]), nanoTime(slices.Max(s.cols.aEnd))}
}

// AttackRecordAt returns the attack record for one column row: the shared
// record once Attacks has materialized them, otherwise a fresh one
// (including its own BotIPs, expanded from the dense layer) that nothing
// else holds. The §V detectors build only the rows that qualify for an
// event through it, so a report run never materializes the records.
func (s *Store) AttackRecordAt(row int) *Attack {
	if s.recBuilt.Load() {
		return s.Attacks()[row]
	}
	c := s.cols
	lo, hi := c.aOff[row], c.aOff[row+1]
	a := new(Attack)
	c.fillAttack(a, row, s.denseBots().expand(make([]netip.Addr, hi-lo), lo, hi))
	return a
}

// SummaryCounts mirrors the paper's Table III: distinct entities on the
// attacker and victim sides.
type SummaryCounts struct {
	Attacks         int
	Botnets         int
	TrafficTypes    int
	BotIPs          int
	SourceCountries int
	SourceCities    int
	SourceOrgs      int
	SourceASNs      int
	TargetIPs       int
	TargetCountries int
	TargetCities    int
	TargetOrgs      int
	TargetASNs      int
}

// tgtShard holds the victim-side distinct-entity sets of one contiguous
// attack range, expressed over interned ids: countries and orgs are
// stamp arrays indexed by string id, cities key on the packed
// (country id, city id) pair — the columnar form of the old placeKey,
// so a city name shared across countries still counts per country —
// and traffic types are a bitmask over the closed Category set. Shards
// merge by union, so the result is independent of how the attack list
// is split.
type tgtShard struct {
	catBits uint32
	cc      []bool
	org     []bool
	cities  map[uint64]struct{}
	asns    map[int64]struct{}
}

func (sh *tgtShard) merge(o *tgtShard) {
	sh.catBits |= o.catBits
	for i, v := range o.cc {
		if v {
			sh.cc[i] = true
		}
	}
	for i, v := range o.org {
		if v {
			sh.org[i] = true
		}
	}
	for k := range o.cities {
		sh.cities[k] = struct{}{}
	}
	for k := range o.asns {
		sh.asns[k] = struct{}{}
	}
}

// srcShard holds the attacker-side distinct-entity sets of one
// contiguous dense-id range. Each distinct bot is visited exactly once
// per summary (the dense layer already deduplicated attack references),
// so the pass is linear in distinct bots rather than in total bot
// references.
type srcShard struct {
	cc     []bool
	org    []bool
	cities map[uint64]struct{}
	asns   map[int64]struct{}
}

func (sh *srcShard) merge(o *srcShard) {
	for i, v := range o.cc {
		if v {
			sh.cc[i] = true
		}
	}
	for i, v := range o.org {
		if v {
			sh.org[i] = true
		}
	}
	for k := range o.cities {
		sh.cities[k] = struct{}{}
	}
	for k := range o.asns {
		sh.asns[k] = struct{}{}
	}
}

// pairKey packs an interned (country, city) id pair into one map key.
func pairKey(cc, city int32) uint64 {
	return uint64(uint32(cc))<<32 | uint64(uint32(city))
}

// countStamps returns the number of set entries in a stamp array.
func countStamps(stamps []bool) int {
	n := 0
	for _, v := range stamps {
		if v {
			n++
		}
	}
	return n
}

// Summary computes Table III's counts over the full workload. Source-side
// entity counts come from the Botlist records of the bots that appear in
// attacks; target-side counts come from the attack records. Identity
// counts (attacks, botnets, bot IPs, target IPs) fall out of the store's
// standing indexes; the remaining distinct sets are computed over the
// columnar form — interned-id stamp arrays instead of string-keyed hash
// sets — sharded across contiguous ranges and merged by union, so the
// counts are identical to a sequential pass.
func (s *Store) Summary() SummaryCounts {
	return s.summary(0)
}

// summary is Summary with its worker count exposed (0 = all cores,
// 1 = sequential) for the parity tests.
func (s *Store) summary(workers int) SummaryCounts {
	c := s.Cols()
	d := s.denseBots()
	nStr := len(c.strs)
	tgtShards := par.ChunkMap(workers, len(c.aID), func(lo, hi int) *tgtShard {
		sh := &tgtShard{
			cc:     make([]bool, nStr),
			org:    make([]bool, nStr),
			cities: make(map[uint64]struct{}, 256),
			asns:   make(map[int64]struct{}, 256),
		}
		for i := lo; i < hi; i++ {
			sh.catBits |= 1 << c.aCat[i]
			sh.cc[c.aCC[i]] = true
			sh.org[c.aOrg[i]] = true
			sh.cities[pairKey(c.aCC[i], c.aCity[i])] = struct{}{}
			sh.asns[c.aASN[i]] = struct{}{}
		}
		return sh
	})
	srcShards := par.ChunkMap(workers, len(d.rec), func(lo, hi int) *srcShard {
		sh := &srcShard{
			cc:     make([]bool, nStr),
			org:    make([]bool, nStr),
			cities: make(map[uint64]struct{}, 1024),
			asns:   make(map[int64]struct{}, 1024),
		}
		for _, row := range d.rec[lo:hi] {
			if row < 0 {
				continue
			}
			sh.cc[c.bCC[row]] = true
			sh.org[c.bOrg[row]] = true
			sh.cities[pairKey(c.bCC[row], c.bCity[row])] = struct{}{}
			sh.asns[c.bASN[row]] = struct{}{}
		}
		return sh
	})
	tgt := &tgtShard{
		cc:     make([]bool, nStr),
		org:    make([]bool, nStr),
		cities: make(map[uint64]struct{}, 256),
		asns:   make(map[int64]struct{}, 256),
	}
	for _, sh := range tgtShards {
		tgt.merge(sh)
	}
	src := &srcShard{
		cc:     make([]bool, nStr),
		org:    make([]bool, nStr),
		cities: make(map[uint64]struct{}, 1024),
		asns:   make(map[int64]struct{}, 1024),
	}
	for _, sh := range srcShards {
		src.merge(sh)
	}
	return SummaryCounts{
		Attacks:         len(c.aID),
		Botnets:         s.attackBotnets(),
		TrafficTypes:    bits.OnesCount32(tgt.catBits),
		BotIPs:          d.ips.len(),
		SourceCountries: countStamps(src.cc),
		SourceCities:    len(src.cities),
		SourceOrgs:      countStamps(src.org),
		SourceASNs:      len(src.asns),
		TargetIPs:       len(c.targets),
		TargetCountries: countStamps(tgt.cc),
		TargetCities:    len(tgt.cities),
		TargetOrgs:      countStamps(tgt.org),
		TargetASNs:      len(tgt.asns),
	}
}
