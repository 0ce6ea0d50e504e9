package dataset

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"time"
)

// notColumns are the fields of Columns that hold no snapshot column:
// what NewStore keeps until the dense layer is derived from it, the
// mapping, and the two derived products.
var notColumns = map[string]bool{"Columns.refIPs": true, "Columns.mmap": true, "Columns.nRowByID": true, "Columns.dense": true}

// DiffColumns compares two stores' columns and dense layers cell by cell
// and describes the first difference, "" when there is none. It walks the
// struct fields by reflection, so a column added to Columns is compared —
// or reported as a kind it cannot compare — without being listed here.
func DiffColumns(a, b *Store) string {
	if d := diffFields("Columns", reflect.ValueOf(a.Cols()).Elem(), reflect.ValueOf(b.Cols()).Elem()); d != "" {
		return d
	}
	return diffFields("denseBots", reflect.ValueOf(a.denseBots()).Elem(), reflect.ValueOf(b.denseBots()).Elem())
}

func diffFields(owner string, a, b reflect.Value) string {
	// readable lifts the read-only flag reflection puts on unexported fields.
	readable := func(v reflect.Value) reflect.Value { return reflect.NewAt(v.Type(), v.Addr().UnsafePointer()).Elem() }
	for i := 0; i < a.NumField(); i++ {
		name := owner + "." + a.Type().Field(i).Name
		if notColumns[name] {
			continue
		}
		fa, fb := readable(a.Field(i)), readable(b.Field(i))
		if ca, ok := fa.Interface().(addrCol); ok {
			if cb := fb.Interface().(addrCol); !bytes.Equal(ca.b, cb.b) || !bytes.Equal(ca.tag, cb.tag) {
				return name + " differs"
			}
			continue
		}
		if fa.Kind() != reflect.Slice {
			return name + ": DiffColumns cannot compare a " + fa.Kind().String()
		}
		if fa.Len() != fb.Len() {
			return fmt.Sprintf("%s has %d cells against %d", name, fa.Len(), fb.Len())
		}
		for j := 0; j < fa.Len(); j++ {
			if x, y := fa.Index(j).Interface(), fb.Index(j).Interface(); x != y {
				return fmt.Sprintf("%s[%d] = %v against %v", name, j, x, y)
			}
		}
	}
	return ""
}

// The declarations below are read only by tests: the fuzzer's decode
// entry, the Botlist row cursor the reference scans resolve bots by, and
// the row and store accessors the round-trip tests compare.

// DecodeSnapshot parses a BSCS snapshot and returns a lazy store over
// the decoded columns, validating every column invariant, so a corrupt
// or hostile snapshot yields an error rather than a malformed store.
// This is the fuzzer's entry point. The caller keeps ownership of data:
// nothing in the returned store aliases it.
func DecodeSnapshot(data []byte) (*Store, error) {
	s, _, err := decodeSnapshot(data, false)
	return s, err
}

// InactiveFamilies are the remaining 13 of the paper's 23 tracked families.
// They appear in the Botnetlist but launch no attacks during the window.
var InactiveFamilies = []Family{
	"armageddon", "athena", "madness", "drive", "gbot", "illusion",
	"infinity", "russkill", "solarbot", "tornado", "vertexnet", "warbot",
	"zemra",
}

// Magnitude returns the number of source IPs, the paper's proxy for attack
// strength.
func (a *Attack) Magnitude() int { return len(a.BotIPs) }

// NumBotnets returns the number of Botnetlist records.
func (s *Store) NumBotnets() int { return len(s.cols.nID) }

// NumTargets returns the number of distinct attacked IPs.
func (s *Store) NumTargets() int { return len(s.cols.targets) }

// RowsInRange returns the half-open attack row range [lo, hi) whose
// starts fall in [from, to), using the column start ordering.
func (s *Store) RowsInRange(from, to time.Time) (lo, hi int) {
	c := s.Cols()
	fromNS, toNS := from.UnixNano(), to.UnixNano()
	lo = sort.Search(len(c.aStart), func(i int) bool { return c.aStart[i] >= fromNS })
	hi = sort.Search(len(c.aStart), func(i int) bool { return c.aStart[i] >= toNS })
	return lo, hi
}

// Bot returns a cursor over the Botlist row of a resolved dense id. ok
// is false when the IP never resolved in the Botlist. The view reads the
// store's columns in place and must not outlive it.
func (ix *BotIndex) Bot(id int32) (BotView, bool) {
	row := ix.rows[id]
	if row < 0 {
		return BotView{}, false
	}
	return ix.cols.BotRow(row), true
}

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

// ID returns the botnet id.
func (v BotnetView) ID() BotnetID { return BotnetID(v.c.nID[v.row]) }

// Family returns the botnet's malware family.
func (v BotnetView) Family() Family { return Family(v.c.strs[v.c.nFam[v.row]]) }

// ControllerIP returns the C2 controller address.
func (v BotnetView) ControllerIP() netip.Addr { return v.c.nCtrl[v.row] }

// FirstSeen returns the botnet's first-seen time.
func (v BotnetView) FirstSeen() time.Time { return nanoTime(v.c.nFirst[v.row]) }

// LastSeen returns the botnet's last-seen time.
func (v BotnetView) LastSeen() time.Time { return nanoTime(v.c.nLast[v.row]) }
