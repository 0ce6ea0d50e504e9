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

// AttackRows returns the number of attack rows, for cursor loops.
func (s *Store) AttackRows() int { return len(s.Cols().aID) }

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

// Magnitude returns the number of source IPs, i.e. the reference-span
// length — the cursor form of Attack.Magnitude.
func (v AttackView) Magnitude() int {
	return int(v.c.aOff[v.row+1] - v.c.aOff[v.row])
}

// TargetASN returns the victim ASN.
func (v AttackView) TargetASN() int { return int(v.c.aASN[v.row]) }

// TargetCountry returns the victim country code.
func (v AttackView) TargetCountry() string { return v.c.strs[v.c.aCC[v.row]] }

// TargetCity returns the victim city.
func (v AttackView) TargetCity() string { return v.c.strs[v.c.aCity[v.row]] }

// TargetOrg returns the victim organization.
func (v AttackView) TargetOrg() string { return v.c.strs[v.c.aOrg[v.row]] }

// TargetLat returns the victim latitude.
func (v AttackView) TargetLat() float64 { return v.c.aLat[v.row] }

// TargetLon returns the victim longitude.
func (v AttackView) TargetLon() float64 { return v.c.aLon[v.row] }

// BotView is a cursor over one Botlist row.
type BotView struct {
	c   *Columns
	row int32
}

// BotRow returns a cursor over Botlist row i.
func (c *Columns) BotRow(i int32) BotView { return BotView{c: c, row: i} }

// IP returns the bot's address.
func (v BotView) IP() netip.Addr { return v.c.bIP.at(v.row) }

// ASN returns the bot's ASN.
func (v BotView) ASN() int { return int(v.c.bASN[v.row]) }

// CountryCode returns the bot's country code.
func (v BotView) CountryCode() string { return v.c.strs[v.c.bCC[v.row]] }

// City returns the bot's city.
func (v BotView) City() string { return v.c.strs[v.c.bCity[v.row]] }

// Org returns the bot's organization.
func (v BotView) Org() string { return v.c.strs[v.c.bOrg[v.row]] }

// Lat returns the bot's latitude.
func (v BotView) Lat() float64 { return v.c.bLat[v.row] }

// Lon returns the bot's longitude.
func (v BotView) Lon() float64 { return v.c.bLon[v.row] }

// LastActive returns the bot's last-active time.
func (v BotView) LastActive() time.Time { return nanoTime(v.c.bLast[v.row]) }

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

// ID returns the botnet id.
func (v BotnetView) ID() BotnetID { return BotnetID(v.c.nID[v.row]) }

// Family returns the botnet's malware family.
func (v BotnetView) Family() Family { return Family(v.c.strs[v.c.nFam[v.row]]) }

// Hash returns the botnet's sample hash.
func (v BotnetView) Hash() string { return v.c.strs[v.c.nHash[v.row]] }

// ControllerIP returns the C2 controller address.
func (v BotnetView) ControllerIP() netip.Addr { return v.c.nCtrl[v.row] }

// FirstSeen returns the botnet's first-seen time.
func (v BotnetView) FirstSeen() time.Time { return nanoTime(v.c.nFirst[v.row]) }

// LastSeen returns the botnet's last-seen time.
func (v BotnetView) LastSeen() time.Time { return nanoTime(v.c.nLast[v.row]) }
