package dataset

import (
	"net/netip"

	"botscope/internal/geo"
	"botscope/internal/memo"
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
// references. Everything in it is built from the columns alone, so an
// index over a snapshot-loaded store never touches the record face.
//
// The index is the value of a memo.Lazy on the store: complete before any
// caller sees it, safe for concurrent readers; returned slices are shared
// and must not be modified.
type BotIndex struct {
	cols *Columns
	ips  addrCol           // id -> ip (shared with the columnar dense layer)
	rows []int32           // id -> Botlist row, -1 when unresolved
	pts  []geo.CachedPoint // id -> cached location; zero when unresolved
	refs []int32           // per-attack id spans, concatenated in attack order

	ids memo.Lazy[map[netip.Addr]int32] // ip -> dense id
}

// BotDense returns the store's dense bot index, building it on first use.
func (s *Store) BotDense() *BotIndex { return s.botIdx.Get(s.buildBotIndex) }

func (s *Store) buildBotIndex() *BotIndex {
	c := s.cols
	d := s.denseBots()
	ix := &BotIndex{
		cols: c,
		ips:  d.ips,
		rows: d.rec,
		refs: d.refs,
		pts:  make([]geo.CachedPoint, d.ips.len()),
	}
	for id, row := range d.rec {
		if row < 0 {
			continue
		}
		ix.pts[id] = geo.NewCachedPoint(geo.LatLon{Lat: c.bLat[row], Lon: c.bLon[row]})
	}
	return ix
}

// NumIDs returns the number of distinct bot IPs across all attacks.
func (ix *BotIndex) NumIDs() int { return ix.ips.len() }

// ID resolves an IP to its dense id. The reverse map is built lazily on
// first call: the hot kernels only ever go id -> record, so most stores
// never pay for it.
func (ix *BotIndex) ID(ip netip.Addr) (int32, bool) {
	id, ok := ix.ids.Get(ix.buildIDs)[ip]
	return id, ok
}

func (ix *BotIndex) buildIDs() map[netip.Addr]int32 {
	m := make(map[netip.Addr]int32, ix.ips.len())
	for i := int32(0); i < int32(ix.ips.len()); i++ {
		m[ix.ips.at(i)] = i
	}
	return m
}

// IP returns the address of a dense id.
func (ix *BotIndex) IP(id int32) netip.Addr { return ix.ips.at(id) }

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
