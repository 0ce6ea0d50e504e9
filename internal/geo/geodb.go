package geo

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"strconv"
)

// OrgKind classifies the organization that owns an address block. The
// paper's organization-level target analysis (Fig 14) found attacks aimed
// mostly at web hosting services, cloud providers, data centers, domain
// registrars and backbone ASes — kinds that the synthetic database must be
// able to represent so targets can be drawn from them.
type OrgKind int

// Organization kinds, from eyeball networks to infrastructure providers.
const (
	OrgTelecom OrgKind = iota + 1
	OrgBroadband
	OrgHosting
	OrgCloud
	OrgDatacenter
	OrgRegistrar
	OrgBackbone
	OrgEnterprise
)

// String returns the human-readable kind name.
func (k OrgKind) String() string {
	switch k {
	case OrgTelecom:
		return "telecom"
	case OrgBroadband:
		return "broadband"
	case OrgHosting:
		return "hosting"
	case OrgCloud:
		return "cloud"
	case OrgDatacenter:
		return "datacenter"
	case OrgRegistrar:
		return "registrar"
	case OrgBackbone:
		return "backbone"
	case OrgEnterprise:
		return "enterprise"
	default:
		return fmt.Sprintf("OrgKind(%d)", int(k))
	}
}

// InfrastructureKind reports whether the kind is the sort of massive-
// resource infrastructure organization the paper found targeted most.
func (k OrgKind) InfrastructureKind() bool {
	switch k {
	case OrgHosting, OrgCloud, OrgDatacenter, OrgRegistrar, OrgBackbone:
		return true
	default:
		return false
	}
}

// Org is an organization owning one or more address blocks.
type Org struct {
	Name string
	Kind OrgKind
	ASN  int
}

// Location is the geo answer for an IP that the analyses read: the point,
// country, city, organization and ASN the paper's commercial mapping
// service returned.
type Location struct {
	Point       LatLon
	CountryCode string
	City        string
	Org         string
	ASN         int
}

// block is one /16 allocation: 65536 addresses in a single city and org.
type block struct {
	prefix  uint32 // high 16 bits of the IPv4 address, shifted down
	country *Country
	city    City
	org     *Org
}

// DBConfig parameterizes the synthetic GeoIP database.
type DBConfig struct {
	// Seed drives all allocation randomness; identical seeds produce
	// byte-identical databases.
	Seed int64
}

const (
	// blocksPerWeight scales how many /16 blocks each country receives per
	// unit of weight.
	blocksPerWeight = 4
	// cityJitterDeg is the maximum +/- degree offset applied to an address
	// inside its city, so individual bots do not collapse onto one point:
	// roughly a metro area.
	cityJitterDeg = 0.35
)

// DB is a deterministic synthetic GeoIP database. It allocates /16 blocks
// of IPv4 space to (country, city, organization, ASN) tuples and answers
// lookups in O(1). It also supports sampling addresses with constraints,
// which the workload generator uses to place bots and victims.
//
// DB is immutable after construction and safe for concurrent use.
type DB struct {
	seed     int64
	atlas    *Atlas
	blocks   map[uint32]*block // by high-16 prefix
	byCC     map[string][]*block
	infraCC  map[string][]*block // infrastructure-kind blocks by country
	prefixes []uint32            // sorted, for deterministic iteration
}

var orgNameTemplates = []struct {
	suffix string
	kind   OrgKind
}{
	{suffix: "Telecom", kind: OrgTelecom},
	{suffix: "Broadband", kind: OrgBroadband},
	{suffix: "Net", kind: OrgBroadband},
	{suffix: "Hosting", kind: OrgHosting},
	{suffix: "Web Services", kind: OrgHosting},
	{suffix: "Cloud", kind: OrgCloud},
	{suffix: "Datacenter", kind: OrgDatacenter},
	{suffix: "Registry", kind: OrgRegistrar},
	{suffix: "Backbone", kind: OrgBackbone},
	{suffix: "Systems", kind: OrgEnterprise},
}

// NewDB allocates the synthetic address space.
func NewDB(cfg DBConfig) *DB {
	db := &DB{
		seed:    cfg.Seed,
		atlas:   NewAtlas(),
		blocks:  make(map[uint32]*block),
		byCC:    make(map[string][]*block),
		infraCC: make(map[string][]*block),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Shuffle the /16 prefix space (skip 0.x and 127.x and >=224.x to stay
	// plausible) and hand prefixes out country by country.
	var pool []uint32
	for hi := uint32(1 << 8); hi < 224<<8; hi++ {
		if hi>>8 == 127 || hi>>8 == 10 || hi>>8 == 192 {
			continue // loopback/private-ish space stays unallocated
		}
		pool = append(pool, hi)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	next := 0
	asn := 1000
	for _, c := range db.atlas.Countries() {
		n := int(c.Weight*blocksPerWeight + 0.5)
		if n < 1 {
			n = 1
		}
		// Extend the hand-curated city list with synthetic regional
		// centers so city-level entity counts reach realistic scale (the
		// paper observed 2,897 source cities; a handful of metro areas per
		// country cannot carry that).
		cities := append([]City(nil), c.Cities...)
		for extra := 0; extra < int(c.Weight/1.5)+1; extra++ {
			base := c.Cities[extra%len(c.Cities)]
			cities = append(cities, City{
				Name: c.Name + " Region " + strconv.Itoa(extra+1),
				Loc: LatLon{
					Lat: clampLat(base.Loc.Lat + (rng.Float64()-0.5)*5),
					Lon: wrapLon(base.Loc.Lon + (rng.Float64()-0.5)*7),
				},
			})
		}
		// Each country gets a pool of organizations; roughly one org per
		// 1.5 blocks so multiple blocks share owners, and some orgs get a
		// second ASN to mirror the paper's orgs < ASNs relation.
		numOrgs := (n*2 + 2) / 3
		if numOrgs < 1 {
			numOrgs = 1
		}
		orgs := make([]*Org, 0, numOrgs)
		for i := 0; i < numOrgs; i++ {
			tpl := orgNameTemplates[rng.Intn(len(orgNameTemplates))]
			base := c.Name
			if len(c.Cities) > 0 && rng.Intn(2) == 0 {
				base = c.Cities[rng.Intn(len(c.Cities))].Name
			}
			asn++
			org := &Org{
				Name: base + " " + tpl.suffix + " " + strconv.Itoa(i+1),
				Kind: tpl.kind,
				ASN:  asn,
			}
			if rng.Float64() < 0.12 { // a slice of orgs announce 2 ASNs
				asn++
			}
			orgs = append(orgs, org)
		}
		// Guarantee every country has at least one infrastructure org so
		// victims can always be placed.
		hasInfra := false
		for _, o := range orgs {
			if o.Kind.InfrastructureKind() {
				hasInfra = true
				break
			}
		}
		if !hasInfra {
			asn++
			org := &Org{
				Name: fmt.Sprintf("%s Hosting 0", c.Name),
				Kind: OrgHosting,
				ASN:  asn,
			}
			orgs = append(orgs, org)
		}

		for i := 0; i < n && next < len(pool); i++ {
			prefix := pool[next]
			next++
			city := cities[rng.Intn(len(cities))]
			b := &block{
				prefix:  prefix,
				country: c,
				city:    city,
				org:     orgs[rng.Intn(len(orgs))],
			}
			db.blocks[prefix] = b
			db.byCC[c.Code] = append(db.byCC[c.Code], b)
			if b.org.Kind.InfrastructureKind() {
				db.infraCC[c.Code] = append(db.infraCC[c.Code], b)
			}
			db.prefixes = append(db.prefixes, prefix)
		}
		// Countries whose random block assignment produced no
		// infrastructure block get one forced, so target sampling works.
		if len(db.infraCC[c.Code]) == 0 && next < len(pool) {
			prefix := pool[next]
			next++
			var infraOrg *Org
			for _, o := range orgs {
				if o.Kind.InfrastructureKind() {
					infraOrg = o
					break
				}
			}
			b := &block{
				prefix:  prefix,
				country: c,
				city:    cities[0],
				org:     infraOrg,
			}
			db.blocks[prefix] = b
			db.byCC[c.Code] = append(db.byCC[c.Code], b)
			db.infraCC[c.Code] = append(db.infraCC[c.Code], b)
			db.prefixes = append(db.prefixes, prefix)
		}
	}
	sort.Slice(db.prefixes, func(i, j int) bool { return db.prefixes[i] < db.prefixes[j] })
	return db
}

// Countries returns the underlying atlas.
func (db *DB) Countries() *Atlas { return db.atlas }

// Lookup resolves an IPv4 address to its location. The boolean is false
// for non-IPv4 addresses and for addresses in unallocated space.
func (db *DB) Lookup(ip netip.Addr) (Location, bool) {
	if !ip.Is4() {
		return Location{}, false
	}
	raw := ip.As4()
	v := uint32(raw[0])<<24 | uint32(raw[1])<<16 | uint32(raw[2])<<8 | uint32(raw[3])
	b, ok := db.blocks[v>>16]
	if !ok {
		return Location{}, false
	}
	return db.locate(b, v), true
}

// locate computes the deterministic jittered point for an address within
// its block. The jitter is a pure function of the address, so repeated
// lookups agree — mirroring the stability of a real GeoIP snapshot.
func (db *DB) locate(b *block, v uint32) Location {
	low := v & 0xffff
	// splitmix-style scramble of the low bits for jitter.
	h := uint64(low)*0x9e3779b97f4a7c15 + uint64(db.seed)
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	jLat := (float64(h&0xffff)/65535 - 0.5) * 2 * cityJitterDeg
	jLon := (float64((h>>16)&0xffff)/65535 - 0.5) * 2 * cityJitterDeg
	pt := LatLon{Lat: b.city.Loc.Lat + jLat, Lon: b.city.Loc.Lon + jLon}
	if pt.Lat > 90 {
		pt.Lat = 90
	}
	if pt.Lat < -90 {
		pt.Lat = -90
	}
	if pt.Lon > 180 {
		pt.Lon -= 360
	}
	if pt.Lon < -180 {
		pt.Lon += 360
	}
	return Location{
		Point:       pt,
		CountryCode: b.country.Code,
		City:        b.city.Name,
		Org:         b.org.Name,
		ASN:         b.org.ASN,
	}
}

// SampleIP draws a uniformly random allocated address.
func (db *DB) SampleIP(rng *rand.Rand) netip.Addr {
	prefix := db.prefixes[rng.Intn(len(db.prefixes))]
	return addrFromUint32(prefix<<16 | uint32(rng.Intn(1<<16)))
}

// SampleIPInCountry draws a random address allocated to the country. The
// boolean is false for unknown countries.
func (db *DB) SampleIPInCountry(rng *rand.Rand, cc string) (netip.Addr, bool) {
	blocks := db.byCC[cc]
	if len(blocks) == 0 {
		return netip.Addr{}, false
	}
	b := blocks[rng.Intn(len(blocks))]
	return addrFromUint32(b.prefix<<16 | uint32(rng.Intn(1<<16))), true
}

// SampleInfrastructureIP draws a random address in the country that belongs
// to an infrastructure organization (hosting, cloud, datacenter, registrar,
// backbone) — where the paper found DDoS victims concentrated.
func (db *DB) SampleInfrastructureIP(rng *rand.Rand, cc string) (netip.Addr, bool) {
	blocks := db.infraCC[cc]
	if len(blocks) == 0 {
		return netip.Addr{}, false
	}
	b := blocks[rng.Intn(len(blocks))]
	return addrFromUint32(b.prefix<<16 | uint32(rng.Intn(1<<16))), true
}

func clampLat(v float64) float64 {
	if v > 90 {
		return 90
	}
	if v < -90 {
		return -90
	}
	return v
}

func wrapLon(v float64) float64 {
	for v > 180 {
		v -= 360
	}
	for v < -180 {
		v += 360
	}
	return v
}

func addrFromUint32(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
