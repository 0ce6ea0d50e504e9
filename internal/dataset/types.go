// Package dataset defines the three schemas of the paper's workload
// (Table I): the Botlist, the Botnetlist, and the DDoSAttack list, plus an
// indexed in-memory store and CSV/JSON codecs.
//
// Every analysis in botscope consumes these records and nothing else, so a
// calibrated synthetic workload (internal/synth) can stand in for the
// paper's proprietary monitoring feed.
package dataset

import (
	"fmt"
	"net/netip"
	"time"
)

// Category is the nature of a DDoS attack, classified by the protocol used
// to launch it (paper §II-D). The Undetermined/Unknown distinction is the
// paper's: Undetermined means multiple protocols, Unknown means traffic of
// unknown type.
//
// Category values cross the cluster wire inside ingest payloads, so the
// set is closed and botvet's wireframe analyzer keeps every switch over it
// exhaustive: a category added for a new paper figure cannot silently fall
// through classification code.
//
//botvet:wire
type Category int

// Attack categories as enumerated in the paper.
const (
	CategoryHTTP Category = iota + 1
	CategoryTCP
	CategoryUDP
	CategoryUndetermined
	CategoryICMP
	CategoryUnknown
	CategorySYN
)

// Categories lists every category in display order (Figure 1).
var Categories = []Category{
	CategoryHTTP, CategoryTCP, CategoryUDP, CategoryUndetermined,
	CategoryICMP, CategoryUnknown, CategorySYN,
}

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case CategoryHTTP:
		return "HTTP"
	case CategoryTCP:
		return "TCP"
	case CategoryUDP:
		return "UDP"
	case CategoryUndetermined:
		return "UNDETERMINED"
	case CategoryICMP:
		return "ICMP"
	case CategoryUnknown:
		return "UNKNOWN"
	case CategorySYN:
		return "SYN"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// ParseCategory converts a label back to a Category.
func ParseCategory(s string) (Category, error) {
	for _, c := range Categories {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("dataset: unknown category %q", s)
}

// ConnectionOriented reports whether the category rides a connection-
// oriented transport. The paper leans on this to rule out IP spoofing:
// most observed attacks are HTTP/TCP/SYN, where spoofing is impractical.
func (c Category) ConnectionOriented() bool {
	switch c {
	case CategoryHTTP, CategoryTCP, CategorySYN:
		return true
	case CategoryUDP, CategoryUndetermined, CategoryICMP, CategoryUnknown:
		return false
	}
	return false
}

// Family is a botnet malware family name, lower-cased as in the paper.
type Family string

// The ten active families the paper analyzes in depth.
const (
	Aldibot     Family = "aldibot"
	Blackenergy Family = "blackenergy"
	Colddeath   Family = "colddeath"
	Darkshell   Family = "darkshell"
	Ddoser      Family = "ddoser"
	Dirtjumper  Family = "dirtjumper"
	Nitol       Family = "nitol"
	Optima      Family = "optima"
	Pandora     Family = "pandora"
	YZF         Family = "yzf"
)

// ActiveFamilies lists the 10 families the paper's Section III focuses on.
var ActiveFamilies = []Family{
	Aldibot, Blackenergy, Colddeath, Darkshell, Ddoser,
	Dirtjumper, Nitol, Optima, Pandora, YZF,
}

// InactiveFamilies are the remaining 13 of the paper's 23 tracked families.
// They appear in the Botnetlist but launch no attacks during the window.
var InactiveFamilies = []Family{
	"armageddon", "athena", "madness", "drive", "gbot", "illusion",
	"infinity", "russkill", "solarbot", "tornado", "vertexnet", "warbot",
	"zemra",
}

// DDoSID is the globally unique identifier of one DDoS attack.
type DDoSID uint64

// BotnetID identifies one botnet (a generation of a family, marked by a
// unique binary hash in the source data).
type BotnetID uint32

// Bot is one record of the Botlist schema: an infected host with its
// network and geolocation attributes.
type Bot struct {
	IP          netip.Addr
	ASN         int
	CountryCode string
	City        string
	Org         string
	Lat         float64
	Lon         float64
	// LastActive is the timestamp of the last observed bot activity,
	// driving the 24-hour cumulative snapshot window of §II-B.
	LastActive time.Time
}

// Botnet is one record of the Botnetlist schema.
type Botnet struct {
	ID     BotnetID
	Family Family
	// Hash is the MD5-style fingerprint of the malware generation.
	Hash string
	// ControllerIP is the C&C host used to control the botnet.
	ControllerIP netip.Addr
	FirstSeen    time.Time
	LastSeen     time.Time
}

// Attack is one record of the DDoSAttack schema (Table I).
type Attack struct {
	ID       DDoSID
	BotnetID BotnetID
	// Family is the malware family attribution of the launching botnet.
	Family   Family
	Category Category
	TargetIP netip.Addr
	// Start is the paper's `timestamp` field; End is `end_time`.
	Start time.Time
	End   time.Time
	// BotIPs are the attacking sources; the paper uses their count as the
	// attack-magnitude measure (no spoofing, §III-B).
	BotIPs []netip.Addr

	// Target geolocation attributes (asn, cc, city, latitude, longitude,
	// plus the organization used in Fig 14's org-level analysis).
	TargetASN     int
	TargetCountry string
	TargetCity    string
	TargetOrg     string
	TargetLat     float64
	TargetLon     float64
}

// Duration returns End - Start.
func (a *Attack) Duration() time.Duration { return a.End.Sub(a.Start) }

// Magnitude returns the number of source IPs, the paper's proxy for attack
// strength.
func (a *Attack) Magnitude() int { return len(a.BotIPs) }

// Validate checks the structural invariants a well-formed record obeys.
func (a *Attack) Validate() error {
	if a.ID == 0 {
		return fmt.Errorf("dataset: attack has zero ddos_id")
	}
	if a.BotnetID == 0 {
		return fmt.Errorf("dataset: attack %d has zero botnet_id", a.ID)
	}
	if a.Family == "" {
		return fmt.Errorf("dataset: attack %d has empty family", a.ID)
	}
	found := false
	for _, c := range Categories {
		if a.Category == c {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("dataset: attack %d has invalid category %d", a.ID, int(a.Category))
	}
	if !a.TargetIP.IsValid() {
		return fmt.Errorf("dataset: attack %d has invalid target IP", a.ID)
	}
	if a.End.Before(a.Start) {
		return fmt.Errorf("dataset: attack %d ends (%v) before it starts (%v)", a.ID, a.End, a.Start)
	}
	// The columnar core stores timestamps as int64 UTC nanoseconds, so a
	// record must sit inside the UnixNano-representable range (years
	// 1678..2261) to survive the column and snapshot round trips exactly.
	if y := a.Start.Year(); y < 1678 || y > 2261 {
		return fmt.Errorf("dataset: attack %d start year %d outside representable range", a.ID, y)
	}
	if y := a.End.Year(); y < 1678 || y > 2261 {
		return fmt.Errorf("dataset: attack %d end year %d outside representable range", a.ID, y)
	}
	if len(a.BotIPs) == 0 {
		return fmt.Errorf("dataset: attack %d has no source IPs", a.ID)
	}
	if a.TargetLat < -90 || a.TargetLat > 90 || a.TargetLon < -180 || a.TargetLon > 180 {
		return fmt.Errorf("dataset: attack %d has out-of-range coordinates (%v, %v)", a.ID, a.TargetLat, a.TargetLon)
	}
	return nil
}
