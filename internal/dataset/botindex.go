package dataset

import (
	"net/netip"
	"sync"

	"botscope/internal/geo"
)

// BotIndex is the store's dense bot addressing layer: every IP that
// appears in any attack's source set gets one int32 id, assigned in
// attack order (deterministic, since attacks are sorted). The analysis
// kernels that used to resolve map[netip.Addr]*Bot per bot reference —
// dispersion scans, Table III's distinct-entity counts, Figure 8's weekly
// dedup, the blacklist builder — instead walk flat arrays indexed by id:
// a hash lookup per 24-byte key becomes an array load, and per-bot
// geolocation trigonometry is precomputed once for the store's lifetime.
//
// The id numbering and reference spans come straight from the columnar
// core's dense layer, which a snapshot carries in the file, so a reloaded
// store has the identical dense addressing without re-walking 10M+
// references. Everything the column-native kernels touch (ips, rows,
// pts, row-addressed spans, interned attributes) is built from the
// columns alone; the record-facing conveniences — Rec and the
// DDoSID-keyed Refs — materialize their inputs lazily, so an index over
// a snapshot-loaded store stays record-free until one of those is
// called.
//
// All eager fields are written once inside Store.botOnce and immutable
// after, so an index is safe for concurrent readers; returned slices
// are shared and must not be modified.
type BotIndex struct {
	s    *Store
	cols *Columns
	ips  []netip.Addr      // id -> ip (shared with the columnar dense layer)
	rows []int32           // id -> Botlist row, -1 when unresolved
	pts  []geo.CachedPoint // id -> cached location; zero when unresolved
	refs []int32           // per-attack id spans, concatenated in attack order

	offsOnce sync.Once
	offs     map[DDoSID]int // attack -> offset of its span in refs; written once inside offsOnce.Do

	recsOnce sync.Once
	recs     []*Bot // id -> Botlist record; written once inside recsOnce.Do

	idsOnce sync.Once
	ids     map[netip.Addr]int32 // ip -> dense id; written once inside idsOnce.Do, immutable after
}

// BotDense returns the store's dense bot index, building it on first use.
func (s *Store) BotDense() *BotIndex {
	s.botOnce.Do(s.buildBotIndex)
	return s.botIdx
}

func (s *Store) buildBotIndex() {
	c := s.cols
	d := s.denseBots()
	ix := &BotIndex{
		s:    s,
		cols: c,
		ips:  d.ips,
		rows: d.rec,
		refs: d.refs,
		pts:  make([]geo.CachedPoint, len(d.ips)),
	}
	for id, row := range d.rec {
		if row < 0 {
			continue
		}
		ix.pts[id] = geo.NewCachedPoint(geo.LatLon{Lat: c.bLat[row], Lon: c.bLon[row]})
	}
	s.botIdx = ix
}

// NumIDs returns the number of distinct bot IPs across all attacks.
func (ix *BotIndex) NumIDs() int { return len(ix.ips) }

// ID resolves an IP to its dense id. The reverse map is built lazily on
// first call: the hot kernels only ever go id -> record, so most stores
// never pay for it.
func (ix *BotIndex) ID(ip netip.Addr) (int32, bool) {
	ix.idsOnce.Do(func() {
		m := make(map[netip.Addr]int32, len(ix.ips))
		for i, a := range ix.ips {
			m[a] = int32(i)
		}
		ix.ids = m
	})
	id, ok := ix.ids[ip]
	return id, ok
}

// IP returns the address of a dense id.
func (ix *BotIndex) IP(id int32) netip.Addr { return ix.ips[id] }

// Resolved reports whether a dense id has a Botlist row.
func (ix *BotIndex) Resolved(id int32) bool { return ix.rows[id] >= 0 }

// Bot returns a cursor over the Botlist row of a resolved dense id. ok
// is false when the IP never resolved in the Botlist. The view reads the
// store's columns in place and must not outlive it.
//
//botscope:mmap
func (ix *BotIndex) Bot(id int32) (BotView, bool) {
	row := ix.rows[id]
	if row < 0 {
		return BotView{}, false
	}
	return ix.cols.BotRow(row), true
}

// CountryID returns the interned-string id of a dense id's country code
// (Columns.NumStrings bounds it, Columns.Str resolves it), or -1 when
// unresolved — so kernels count per country in a flat array and touch
// strings only when they write their output.
func (ix *BotIndex) CountryID(id int32) int32 {
	row := ix.rows[id]
	if row < 0 {
		return -1
	}
	return ix.cols.bCC[row]
}

// Rec returns the Botlist record of a dense id, or nil when the IP never
// resolved in the Botlist. This is the record face of the index: on a
// snapshot-loaded store the first call materializes the Bot records.
func (ix *BotIndex) Rec(id int32) *Bot {
	ix.recsOnce.Do(func() {
		ix.s.records()
		recs := make([]*Bot, len(ix.ips))
		for i, row := range ix.rows {
			if row >= 0 {
				recs[i] = ix.s.botList[row]
			}
		}
		ix.recs = recs
	})
	return ix.recs[id]
}

// Point returns the precomputed location of a resolved dense id. The
// value is meaningful only when Resolved(id).
func (ix *BotIndex) Point(id int32) geo.CachedPoint { return ix.pts[id] }

// RefsRow returns attack row i's source set as dense ids. The span
// aliases the index's shared refs array and must not be modified.
//
//botscope:shared
//botscope:mmap
func (ix *BotIndex) RefsRow(i int) []int32 {
	lo, hi := ix.cols.aOff[i], ix.cols.aOff[i+1]
	return ix.refs[lo:hi:hi]
}

// Refs returns the attack's source set as dense ids, aligned with
// a.BotIPs. It returns nil for attacks not belonging to this store. The
// span aliases the index's shared refs array and must not be modified.
//
//botscope:shared
//botscope:mmap
func (ix *BotIndex) Refs(a *Attack) []int32 {
	ix.offsOnce.Do(func() {
		c := ix.cols
		offs := make(map[DDoSID]int, len(c.aID))
		for i, id := range c.aID {
			offs[DDoSID(id)] = int(c.aOff[i])
		}
		ix.offs = offs
	})
	off, ok := ix.offs[a.ID]
	if !ok {
		return nil
	}
	return ix.refs[off : off+len(a.BotIPs)]
}
