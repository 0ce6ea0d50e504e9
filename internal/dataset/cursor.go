package dataset

// cursor.go is the column-cursor API: tiny value-type views that let
// analysis kernels read one attack/bot/botnet row straight out of the
// columnar arrays without materializing pointer-rich records. A view is
// two words (columns pointer + row); every accessor is a direct array
// load, so cursor loops are allocation-free. Views are read-only and
// valid while the caller holds the owning Store (close.go): on a mapped
// store the columns they read are the file's bytes, which Close unmaps.

import (
	"net/netip"
	"time"
)

// AttackView is a cursor over one attack row.
type AttackView struct {
	c   *Columns
	row int32
}

// Attack returns a cursor over attack row i (the store's sorted attack
// order).
func (c *Columns) Attack(i int) AttackView { return AttackView{c: c, row: int32(i)} }

// AttackAt returns a cursor over attack row i without touching the
// record face.
func (s *Store) AttackAt(i int) AttackView { return s.Cols().Attack(i) }

// ID returns the attack's ddos_id.
func (v AttackView) ID() DDoSID { return DDoSID(v.c.aID[v.row]) }

// BotnetID returns the launching botnet's id.
func (v AttackView) BotnetID() BotnetID { return BotnetID(v.c.aBotnet[v.row]) }

// Family returns the malware family.
func (v AttackView) Family() Family { return Family(v.c.strs[v.c.aFam[v.row]]) }

// Category returns the traffic category.
func (v AttackView) Category() Category { return Category(v.c.aCat[v.row]) }

// TargetIP returns the victim address.
func (v AttackView) TargetIP() netip.Addr { return v.c.targets[v.c.aTgt[v.row]] }

// Start returns the attack start time.
func (v AttackView) Start() time.Time { return nanoTime(v.c.aStart[v.row]) }

// End returns the attack end time.
func (v AttackView) End() time.Time { return nanoTime(v.c.aEnd[v.row]) }

// StartNano returns the start as UTC nanoseconds, for comparisons that
// should not construct a time.Time.
func (v AttackView) StartNano() int64 { return v.c.aStart[v.row] }

// EndNano returns the end as UTC nanoseconds.
func (v AttackView) EndNano() int64 { return v.c.aEnd[v.row] }

// Duration returns End minus Start. Identical to End().Sub(Start())
// because both timestamps are exact nanosecond instants.
func (v AttackView) Duration() time.Duration {
	return time.Duration(v.c.aEnd[v.row] - v.c.aStart[v.row])
}

// Magnitude returns the number of source IPs, the paper's proxy for
// attack strength: the reference-span length, len(BotIPs) on the record.
func (v AttackView) Magnitude() int {
	return int(v.c.aOff[v.row+1] - v.c.aOff[v.row])
}

// TargetCountry returns the victim country code.
func (v AttackView) TargetCountry() string { return v.c.strs[v.c.aCC[v.row]] }

// TargetASN returns the victim ASN.
func (v AttackView) TargetASN() int { return int(v.c.aASN[v.row]) }

// TargetCity returns the victim city.
func (v AttackView) TargetCity() string { return v.c.strs[v.c.aCity[v.row]] }

// TargetOrg returns the victim organization.
func (v AttackView) TargetOrg() string { return v.c.strs[v.c.aOrg[v.row]] }

// TargetLat returns the victim latitude.
func (v AttackView) TargetLat() float64 { return v.c.aLat[v.row] }

// TargetLon returns the victim longitude.
func (v AttackView) TargetLon() float64 { return v.c.aLon[v.row] }

// BotnetView is a cursor over one Botnetlist row.
type BotnetView struct {
	c   *Columns
	row int32
}

// BotnetByID returns a cursor over the botnet with the given id. ok is
// false when the id has no Botnetlist row.
func (s *Store) BotnetByID(id BotnetID) (BotnetView, bool) {
	c := s.Cols()
	row, ok := c.botnetRow(uint32(id))
	if !ok {
		return BotnetView{}, false
	}
	return BotnetView{c: c, row: row}, true
}

// Hash returns the botnet's sample hash.
func (v BotnetView) Hash() string { return v.c.strs[v.c.nHash[v.row]] }
