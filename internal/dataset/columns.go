package dataset

// columns.go holds the struct-of-arrays columnar core behind Store. The
// pointer-rich record API (Attack/Bot/Botnet) stays the package's public
// face, but the canonical storage of a workload is a set of flat typed
// arrays: every string lives once in an interned table and is referenced
// by int32 id, every timestamp is an int64 of UTC nanoseconds, and every
// attack's source set is a span into one shared reference arena. The
// columns are what the binary snapshot codec (snapshot.go) serializes,
// what the analysis kernels iterate through the cursor API (cursor.go),
// and what the dense BotIndex is derived from.
//
// Columns come from one of two producers, both of which finish before
// the store is published: NewStore validates and sorts the caller's
// records and flattens them (columnize); the snapshot decoder views or
// copies them out of the file and validateColumns re-checks every store
// invariant over the flat arrays. The one difference the producers leave
// behind is the dense source-IP layer, which the file carries and
// columnize leaves to first use (it costs more than the rest of
// construction together).
//
// The columns are immutable once published and safe for concurrent
// readers.

import (
	"fmt"
	"net/netip"
	"time"

	"botscope/internal/memo"
)

// interner assigns dense int32 ids to strings in first-seen order. Id 0
// is always the empty string so a zero-valued column cell is meaningful.
type interner struct {
	ids  map[string]int32
	strs []string
}

func newInterner(sizeHint int) *interner {
	in := &interner{
		ids:  make(map[string]int32, sizeHint),
		strs: make([]string, 0, sizeHint),
	}
	in.id("")
	return in
}

func (in *interner) id(s string) int32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	id := int32(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}

// addrCol is a packed address column: 16 bytes (the As16 form) and a tag
// (0 = the zero Addr, 4, 16) a row, the netip.Addr built at the accessor.
// Against []netip.Addr it is 17 bytes a row instead of 24, holds nothing
// for the collector to scan, and is what a snapshot stores, so the two
// large address columns (Botlist IPs, dense source IPs) alias the file.
// There is no zone: Attack.Validate rejects a zoned address.
type addrCol struct {
	b   []byte
	tag []uint8
}

func newAddrCol(capacity int) addrCol {
	return addrCol{b: make([]byte, 0, 16*capacity), tag: make([]uint8, 0, capacity)}
}

func (a addrCol) len() int { return len(a.tag) }

// at returns row i's address. It does not allocate.
func (a addrCol) at(i int32) netip.Addr {
	var ip netip.Addr
	switch b := a.b[16*int(i):][:16]; a.tag[i] {
	case 4:
		ip = netip.AddrFrom4([4]byte(b[12:]))
	case 16:
		ip = netip.AddrFrom16([16]byte(b))
	}
	return ip
}

// same reports whether row i of a and row j of o hold one address.
func (a addrCol) same(i int32, o addrCol, j int32) bool {
	return a.tag[i] == o.tag[j] && [16]byte(a.b[16*int(i):]) == [16]byte(o.b[16*int(j):])
}

// append adds one row.
func (a *addrCol) append(ip netip.Addr) {
	b := ip.As16()
	switch {
	case !ip.IsValid():
		a.tag = append(a.tag, 0)
	case ip.Is4():
		a.tag = append(a.tag, 4)
	default:
		a.tag = append(a.tag, 16)
	}
	a.b = append(a.b, b[:]...)
}

func packAddrs(ips []netip.Addr) addrCol {
	a := newAddrCol(len(ips))
	for _, ip := range ips {
		a.append(ip)
	}
	return a
}

func (a addrCol) unpack() []netip.Addr {
	ips := make([]netip.Addr, a.len())
	for i := range ips {
		ips[i] = a.at(int32(i))
	}
	return ips
}

// v4Prefix is what As16 puts before an IPv4 address's four bytes.
var v4Prefix = [12]byte{10: 0xff, 11: 0xff}

// canonical reports whether every row is what append would have written:
// a known tag, the mapped prefix before an IPv4 address, zero bytes under
// the zero Addr. When one is not it returns that row.
func (a addrCol) canonical() (int, bool) {
	for i, tag := range a.tag {
		b := [16]byte(a.b[16*i:])
		switch tag {
		case 16:
		case 4:
			if [12]byte(b[:12]) != v4Prefix {
				return i, false
			}
		case 0:
			if b != [16]byte{} {
				return i, false
			}
		default:
			return i, false
		}
	}
	return 0, true
}

// Columns is the struct-of-arrays form of one workload. Attack columns
// are aligned with the store's sorted attack order; bot columns with the
// deduplicated Botlist row order; botnet columns with Botnetlist input
// order. All slices are written once during construction (columnize or
// the snapshot decoder) and immutable after.
type Columns struct {
	strs    []string     // interned string table; strs[0] == ""
	targets []netip.Addr // distinct target IPs in first-seen attack order

	// Attack columns, sorted by (Start, ID).
	aID     []uint64 // ddos_id
	aBotnet []uint32 // botnet_id
	aFam    []int32  // family, interned
	aCat    []uint8  // Category value
	aTgt    []int32  // index into targets
	aStart  []int64  // Start, UTC nanoseconds
	aEnd    []int64  // End, UTC nanoseconds
	aASN    []int64  // target ASN
	aCC     []int32  // target country, interned
	aCity   []int32  // target city, interned
	aOrg    []int32  // target org, interned
	aLat    []float64
	aLon    []float64
	aOff    []int64 // len n+1; attack i's sources are span [aOff[i], aOff[i+1])

	// refIPs is all attacks' source IPs, concatenated in attack order:
	// what columnize leaves for the dense layer to be derived from. The
	// snapshot decoder reads the dense layer itself and leaves this nil.
	refIPs []netip.Addr

	// Bot columns (Botlist rows, deduplicated by IP, first-occurrence
	// order, last record wins).
	bIP   addrCol
	bASN  []int64
	bCC   []int32 // interned
	bCity []int32 // interned
	bOrg  []int32 // interned
	bLat  []float64
	bLon  []float64
	bLast []int64 // LastActive, UTC nanoseconds

	// Botnet columns (Botnetlist input order).
	nID    []uint32
	nFam   []int32 // interned
	nHash  []int32 // interned
	nCtrl  []netip.Addr
	nFirst []int64
	nLast  []int64

	nRowByID memo.Lazy[map[uint32]int32] // botnet id -> row
	dense    memo.Lazy[*denseBots]       // filled by the snapshot decoder, else derived from refIPs on first use

	// mmap is the mapped snapshot every fixed-width column above aliases
	// (strs, targets and nCtrl are always heap copies); holding it here
	// keeps the region mapped while the columns are reachable. nil when
	// the columns live in the heap: columnized from records, copied out of
	// a snapshot, or aliasing ReadSnapshot's private buffer.
	mmap *mmapRegion
}

// NumAttacks returns the number of attack rows.
func (c *Columns) NumAttacks() int { return len(c.aID) }

// NumBots returns the number of Botlist rows.
func (c *Columns) NumBots() int { return c.bIP.len() }

// NumBotnets returns the number of Botnetlist rows.
func (c *Columns) NumBotnets() int { return len(c.nID) }

// NumRefs returns the total number of source-IP references across all
// attacks (the length of the shared reference arena).
func (c *Columns) NumRefs() int {
	if len(c.aOff) == 0 {
		return 0
	}
	return int(c.aOff[len(c.aOff)-1])
}

// NumStrings returns the size of the interned string table.
func (c *Columns) NumStrings() int { return len(c.strs) }

// Str resolves an interned-string id; distinct ids are distinct strings.
func (c *Columns) Str(id int32) string { return c.strs[id] }

// botnetRow resolves a botnet id to its column row. The reverse map is
// built lazily: most analyses only walk attack columns.
func (c *Columns) botnetRow(id uint32) (int32, bool) {
	row, ok := c.nRowByID.Get(c.buildBotnetRows)[id]
	return row, ok
}

func (c *Columns) buildBotnetRows() map[uint32]int32 {
	m := make(map[uint32]int32, len(c.nID))
	for i, v := range c.nID {
		if _, ok := m[v]; !ok {
			m[v] = int32(i)
		}
	}
	return m
}

// denseBots is the dense addressing layer over the reference arena:
// every distinct source IP gets one int32 id assigned at its first
// appearance in attack order, so the numbering is deterministic for a
// given workload. rec maps a dense id to its Botlist row, -1 when the IP
// never resolved in the Botlist.
type denseBots struct {
	ips  addrCol // id -> address
	refs []int32 // refIPs re-expressed as dense ids, same order
	rec  []int32 // id -> bot row, or -1
}

// buildDense derives the dense layer from the reference arena. rows maps
// a bot IP to its Botlist row.
func buildDense(refIPs []netip.Addr, nBotsHint int, rows map[netip.Addr]int32) *denseBots {
	ids := make(map[netip.Addr]int32, nBotsHint)
	ips := newAddrCol(nBotsHint)
	refs := make([]int32, len(refIPs))
	for i, ip := range refIPs {
		id, ok := ids[ip]
		if !ok {
			id = int32(ips.len())
			ids[ip] = id
			ips.append(ip)
		}
		refs[i] = id
	}
	rec := make([]int32, ips.len())
	for i := range rec {
		if row, ok := rows[ips.at(int32(i))]; ok {
			rec[i] = row
		} else {
			rec[i] = -1
		}
	}
	return &denseBots{ips: ips, refs: refs, rec: rec}
}

// expand writes the addresses of the reference span [lo, hi) into dst,
// which must have the span's length, and returns it.
func (d *denseBots) expand(dst []netip.Addr, lo, hi int64) []netip.Addr {
	for i, id := range d.refs[lo:hi] {
		dst[i] = d.ips.at(id)
	}
	return dst
}

// Cols returns the store's columns. They are shared and immutable.
func (s *Store) Cols() *Columns { return s.cols }

// denseBots returns the dense source-IP layer, deriving it from the
// reference arena on first use when the columns did not come with one.
func (s *Store) denseBots() *denseBots { return s.cols.dense.Get(s.buildDense) }

func (s *Store) buildDense() *denseBots {
	return buildDense(s.cols.refIPs, s.cols.bIP.len(), s.botRowsByIP())
}

// columnize flattens validated records into columns: attacks already in
// (Start, ID) order, bots already deduplicated, botnets in input order —
// all deterministic, so the columns (and the snapshot bytes derived from
// them) are identical across runs.
func columnize(attacks []*Attack, botnets []*Botnet, bots []*Bot) *Columns {
	n := len(attacks)
	totalRefs := 0
	for _, a := range attacks {
		totalRefs += len(a.BotIPs)
	}
	c := &Columns{
		aID:     make([]uint64, n),
		aBotnet: make([]uint32, n),
		aFam:    make([]int32, n),
		aCat:    make([]uint8, n),
		aTgt:    make([]int32, n),
		aStart:  make([]int64, n),
		aEnd:    make([]int64, n),
		aASN:    make([]int64, n),
		aCC:     make([]int32, n),
		aCity:   make([]int32, n),
		aOrg:    make([]int32, n),
		aLat:    make([]float64, n),
		aLon:    make([]float64, n),
		aOff:    make([]int64, n+1),
		refIPs:  make([]netip.Addr, totalRefs),
	}
	in := newInterner(1024 + len(bots)/64)
	tgtIDs := make(map[netip.Addr]int32, n/4)
	c.targets = make([]netip.Addr, 0, n/4)
	off := int64(0)
	for i, a := range attacks {
		c.aID[i] = uint64(a.ID)
		c.aBotnet[i] = uint32(a.BotnetID)
		c.aFam[i] = in.id(string(a.Family))
		c.aCat[i] = uint8(a.Category)
		tid, ok := tgtIDs[a.TargetIP]
		if !ok {
			tid = int32(len(c.targets))
			tgtIDs[a.TargetIP] = tid
			c.targets = append(c.targets, a.TargetIP)
		}
		c.aTgt[i] = tid
		c.aStart[i] = a.Start.UnixNano()
		c.aEnd[i] = a.End.UnixNano()
		c.aASN[i] = int64(a.TargetASN)
		c.aCC[i] = in.id(a.TargetCountry)
		c.aCity[i] = in.id(a.TargetCity)
		c.aOrg[i] = in.id(a.TargetOrg)
		c.aLat[i] = a.TargetLat
		c.aLon[i] = a.TargetLon
		c.aOff[i] = off
		off += int64(copy(c.refIPs[off:], a.BotIPs))
	}
	c.aOff[n] = off

	nb := len(bots)
	c.bIP = newAddrCol(nb)
	c.bASN = make([]int64, nb)
	c.bCC = make([]int32, nb)
	c.bCity = make([]int32, nb)
	c.bOrg = make([]int32, nb)
	c.bLat = make([]float64, nb)
	c.bLon = make([]float64, nb)
	c.bLast = make([]int64, nb)
	for i, b := range bots {
		c.bIP.append(b.IP)
		c.bASN[i] = int64(b.ASN)
		c.bCC[i] = in.id(b.CountryCode)
		c.bCity[i] = in.id(b.City)
		c.bOrg[i] = in.id(b.Org)
		c.bLat[i] = b.Lat
		c.bLon[i] = b.Lon
		c.bLast[i] = b.LastActive.UnixNano()
	}

	nn := len(botnets)
	c.nID = make([]uint32, nn)
	c.nFam = make([]int32, nn)
	c.nHash = make([]int32, nn)
	c.nCtrl = make([]netip.Addr, nn)
	c.nFirst = make([]int64, nn)
	c.nLast = make([]int64, nn)
	for i, b := range botnets {
		c.nID[i] = uint32(b.ID)
		c.nFam[i] = in.id(string(b.Family))
		c.nHash[i] = in.id(b.Hash)
		c.nCtrl[i] = b.ControllerIP
		c.nFirst[i] = b.FirstSeen.UnixNano()
		c.nLast[i] = b.LastSeen.UnixNano()
	}

	c.strs = in.strs
	return c
}

// nanoTime converts a column timestamp back to a UTC time.Time. All
// workload times are UTC wall-clock values (the paper window), so the
// round trip preserves instants and RFC 3339 formatting exactly.
func nanoTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }

// Column timestamps must sit inside the UnixNano-representable range
// Attack.Validate enforces (years 1678..2261), expressed here as
// nanosecond bounds so validation never has to construct a time.Time on
// the happy path.
var (
	minValidNano = time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	maxValidNano = time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano() - 1
)

// validateColumns checks, directly over decoded columns, the Store
// invariants the snapshot open does not already check on every load (ids
// in range, End >= Start, the (Start, ID) order, the dense numbering: see
// snapshot.go) — the column-native equivalent of Attack.Validate plus the
// duplicate-id and dense cross-checks — so a hostile snapshot cannot
// construct a Store that violates the package's invariants, and the
// attack records can later be built without any re-validation.
func validateColumns(c *Columns, d *denseBots) error {
	seenStr := make(map[string]struct{}, len(c.strs))
	for i, str := range c.strs {
		if _, dup := seenStr[str]; dup {
			return fmt.Errorf("dataset: snapshot string table has duplicate entry %q at id %d", str, i)
		}
		seenStr[str] = struct{}{}
	}

	seenNet := make(map[uint32]struct{}, len(c.nID))
	for _, id := range c.nID {
		if _, dup := seenNet[id]; dup {
			return fmt.Errorf("dataset: snapshot has duplicate botnet_id %d", id)
		}
		seenNet[id] = struct{}{}
	}

	var catValid [256]bool
	for _, cat := range Categories {
		catValid[uint8(cat)] = true
	}

	n := len(c.aID)
	tgtSeen := make([]bool, len(c.targets))
	seen := make(map[uint64]struct{}, n)
	for i := 0; i < n; i++ {
		id := c.aID[i]
		if id == 0 {
			return fmt.Errorf("dataset: snapshot attack row %d: dataset: attack has zero ddos_id", i)
		}
		if c.aBotnet[i] == 0 {
			return fmt.Errorf("dataset: snapshot attack row %d: dataset: attack %d has zero botnet_id", i, id)
		}
		if c.strs[c.aFam[i]] == "" {
			return fmt.Errorf("dataset: snapshot attack row %d: dataset: attack %d has empty family", i, id)
		}
		if !catValid[c.aCat[i]] {
			return fmt.Errorf("dataset: snapshot attack row %d: dataset: attack %d has invalid category %d", i, id, c.aCat[i])
		}
		if !c.targets[c.aTgt[i]].IsValid() {
			return fmt.Errorf("dataset: snapshot attack row %d: dataset: attack %d has invalid target IP", i, id)
		}
		tgtSeen[c.aTgt[i]] = true
		if c.aStart[i] < minValidNano || c.aStart[i] > maxValidNano {
			return fmt.Errorf("dataset: snapshot attack row %d: dataset: attack %d start year %d outside representable range",
				i, id, nanoTime(c.aStart[i]).Year())
		}
		if c.aEnd[i] < minValidNano || c.aEnd[i] > maxValidNano {
			return fmt.Errorf("dataset: snapshot attack row %d: dataset: attack %d end year %d outside representable range",
				i, id, nanoTime(c.aEnd[i]).Year())
		}
		if c.aOff[i+1] == c.aOff[i] {
			return fmt.Errorf("dataset: snapshot attack row %d: dataset: attack %d has no source IPs", i, id)
		}
		if lat, lon := c.aLat[i], c.aLon[i]; lat < -90 || lat > 90 || lon < -180 || lon > 180 {
			return fmt.Errorf("dataset: snapshot attack row %d: dataset: attack %d has out-of-range coordinates (%v, %v)",
				i, id, lat, lon)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("dataset: snapshot has duplicate ddos_id %d", id)
		}
		seen[id] = struct{}{}
	}
	for tid, ok := range tgtSeen {
		if !ok {
			return fmt.Errorf("dataset: snapshot target %d is never referenced by an attack", tid)
		}
	}

	for id, row := range d.rec {
		if row >= 0 && !d.ips.same(int32(id), c.bIP, row) {
			return fmt.Errorf("dataset: snapshot dense id %d resolves to bot row %d with mismatched IP", id, row)
		}
	}
	return nil
}

// fillAttack is the one row -> record fill: it overwrites a with attack
// row's fields, taking ips as its source set.
func (c *Columns) fillAttack(a *Attack, row int, ips []netip.Addr) {
	*a = Attack{
		ID:            DDoSID(c.aID[row]),
		BotnetID:      BotnetID(c.aBotnet[row]),
		Family:        Family(c.strs[c.aFam[row]]),
		Category:      Category(c.aCat[row]),
		TargetIP:      c.targets[c.aTgt[row]],
		Start:         nanoTime(c.aStart[row]),
		End:           nanoTime(c.aEnd[row]),
		BotIPs:        ips,
		TargetASN:     int(c.aASN[row]),
		TargetCountry: c.strs[c.aCC[row]],
		TargetCity:    c.strs[c.aCity[row]],
		TargetOrg:     c.strs[c.aOrg[row]],
		TargetLat:     c.aLat[row],
		TargetLon:     c.aLon[row],
	}
}

// materializeRecords builds the attack records over already-validated
// columns: one arena of Attack structs whose strings come from the
// interned table and whose BotIPs alias one shared address arena. It is
// the build of Store.recs, so it runs at most once per store and only
// when a caller asks for Attacks — a column-native analysis pass never
// gets here.
func (s *Store) materializeRecords() []*Attack {
	c := s.cols
	d := s.denseBots()
	n := len(c.aID)
	refIPs := d.expand(make([]netip.Addr, len(d.refs)), 0, int64(len(d.refs)))
	arena := make([]Attack, n)
	attacks := make([]*Attack, n)
	for i := range arena {
		lo, hi := c.aOff[i], c.aOff[i+1]
		c.fillAttack(&arena[i], i, refIPs[lo:hi:hi])
		attacks[i] = &arena[i]
	}
	s.recBuilt.Store(true)
	return attacks
}
