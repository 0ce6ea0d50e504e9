package geo

import (
	"math/rand"
	"net/netip"
	"slices"
	"testing"
)

func TestAtlasLookup(t *testing.T) {
	a := NewAtlas()
	tests := []struct {
		code     string
		wantName string
	}{
		{code: "US", wantName: "United States"},
		{code: "RU", wantName: "Russia"},
		{code: "KG", wantName: "Kyrgyzstan"},
		{code: "BW", wantName: "Botswana"},
	}
	for _, tt := range tests {
		t.Run(tt.code, func(t *testing.T) {
			c, ok := a.byCode[tt.code]
			if !ok {
				t.Fatalf("country %q missing from atlas", tt.code)
			}
			if c.Name != tt.wantName {
				t.Errorf("Name = %q, want %q", c.Name, tt.wantName)
			}
			if len(c.Cities) == 0 {
				t.Error("country has no cities")
			}
			for _, city := range c.Cities {
				if !city.Loc.Valid() {
					t.Errorf("city %q location %v invalid", city.Name, city.Loc)
				}
			}
		})
	}
	if _, ok := a.byCode["XX"]; ok {
		t.Error("unknown country XX resolved")
	}
}

func TestAtlasCoversPaperCountries(t *testing.T) {
	// Every country in the paper's Table V must exist in the atlas.
	paperCountries := []string{
		"US", "FR", "ES", "VE", "DE", "NL", "SG", "RU", "IN", "PK", "BW",
		"TH", "ID", "CN", "KR", "HK", "JP", "MX", "UY", "CL", "CA", "GB",
		"UA", "KG",
	}
	a := NewAtlas()
	for _, cc := range paperCountries {
		if _, ok := a.byCode[cc]; !ok {
			t.Errorf("paper country %q missing from atlas", cc)
		}
	}
}

// TestAtlasPickByWeight: a country's weight is its share of the address
// space, so uniformly sampled addresses land in heavy countries far more
// often than in light ones.
func TestAtlasPickByWeight(t *testing.T) {
	db := NewDB(DBConfig{Seed: 1})
	rng := rand.New(rand.NewSource(1))
	counts := make(map[string]int)
	for i := 0; i < 20000; i++ {
		loc, ok := db.Lookup(db.SampleIP(rng))
		if !ok {
			t.Fatal("sampled address does not resolve")
		}
		counts[loc.CountryCode]++
	}
	if counts["US"] < counts["IS"]*10 {
		t.Errorf("US picked %d times vs Iceland %d; weighting looks broken", counts["US"], counts["IS"])
	}
}

func TestDBDeterminism(t *testing.T) {
	db1 := NewDB(DBConfig{Seed: 42})
	db2 := NewDB(DBConfig{Seed: 42})
	if !slices.Equal(db1.prefixes, db2.prefixes) || !slices.Equal(blockOrgs(db1), blockOrgs(db2)) {
		t.Fatalf("same seed produced different databases: %d/%d blocks, %d/%d orgs",
			len(db1.prefixes), len(db2.prefixes), len(orgsOf(db1)), len(orgsOf(db2)))
	}
	ip := netip.MustParseAddr("93.158.1.7")
	l1, ok1 := db1.Lookup(ip)
	l2, ok2 := db2.Lookup(ip)
	if ok1 != ok2 {
		t.Fatalf("lookup disagreement: %v vs %v", ok1, ok2)
	}
	if ok1 && l1 != l2 {
		t.Errorf("same seed, same IP, different locations: %+v vs %+v", l1, l2)
	}

	db3 := NewDB(DBConfig{Seed: 43})
	diff := 0
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		probe := db1.SampleIP(rng)
		a, _ := db1.Lookup(probe)
		b, okB := db3.Lookup(probe)
		if !okB || a.CountryCode != b.CountryCode {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced an identical allocation; suspicious")
	}
}

func TestDBLookupConsistency(t *testing.T) {
	db := NewDB(DBConfig{Seed: 7})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		ip := db.SampleIP(rng)
		loc, ok := db.Lookup(ip)
		if !ok {
			t.Fatalf("sampled IP %v not found in DB", ip)
		}
		if !loc.Point.Valid() {
			t.Errorf("IP %v mapped to invalid point %v", ip, loc.Point)
		}
		if loc.CountryCode == "" || loc.City == "" || loc.Org == "" || loc.ASN == 0 {
			t.Errorf("IP %v has incomplete location: %+v", ip, loc)
		}
		// Lookup must be stable.
		again, _ := db.Lookup(ip)
		if again != loc {
			t.Errorf("unstable lookup for %v", ip)
		}
	}
}

func TestDBLookupRejectsUnknown(t *testing.T) {
	db := NewDB(DBConfig{Seed: 7})
	if _, ok := db.Lookup(netip.MustParseAddr("127.0.0.1")); ok {
		t.Error("loopback resolved, want miss")
	}
	if _, ok := db.Lookup(netip.MustParseAddr("10.1.2.3")); ok {
		t.Error("private 10/8 resolved, want miss")
	}
	if _, ok := db.Lookup(netip.MustParseAddr("::1")); ok {
		t.Error("IPv6 resolved, want miss")
	}
	if _, ok := db.Lookup(netip.MustParseAddr("255.255.255.255")); ok {
		t.Error("reserved space resolved, want miss")
	}
}

func TestDBSampleIPInCountry(t *testing.T) {
	db := NewDB(DBConfig{Seed: 7})
	rng := rand.New(rand.NewSource(4))
	for _, cc := range []string{"US", "RU", "CN", "KG"} {
		for i := 0; i < 50; i++ {
			ip, ok := db.SampleIPInCountry(rng, cc)
			if !ok {
				t.Fatalf("no blocks for %s", cc)
			}
			loc, ok := db.Lookup(ip)
			if !ok {
				t.Fatalf("sampled %s IP %v not resolvable", cc, ip)
			}
			if loc.CountryCode != cc {
				t.Errorf("sampled IP for %s resolved to %s", cc, loc.CountryCode)
			}
		}
	}
	if _, ok := db.SampleIPInCountry(rng, "ZZ"); ok {
		t.Error("sampled IP in nonexistent country")
	}
}

func TestDBSampleInfrastructureIP(t *testing.T) {
	db := NewDB(DBConfig{Seed: 7})
	rng := rand.New(rand.NewSource(5))
	for _, c := range db.Countries().Countries() {
		ip, ok := db.SampleInfrastructureIP(rng, c.Code)
		if !ok {
			t.Errorf("country %s has no infrastructure blocks", c.Code)
			continue
		}
		if _, ok := db.Lookup(ip); !ok {
			t.Fatalf("infrastructure IP %v not resolvable", ip)
		}
		if kind := db.orgKindOf(ip); !kind.InfrastructureKind() {
			t.Errorf("infrastructure sample in %s landed on org kind %v", c.Code, kind)
		}
	}
}

// orgKindOf is the kind of the organization that owns ip's /16 block.
func (db *DB) orgKindOf(ip netip.Addr) OrgKind {
	raw := ip.As4()
	return db.blocks[uint32(raw[0])<<8|uint32(raw[1])].org.Kind
}

func TestDBScale(t *testing.T) {
	db := NewDB(DBConfig{Seed: 1})
	// Rough scale check against the paper's source-side statistics:
	// thousands of orgs, thousands of blocks across all countries.
	if len(db.blocks) < 500 {
		t.Errorf("%d blocks, want >= 500", len(db.blocks))
	}
	if n := len(orgsOf(db)); n < 300 {
		t.Errorf("%d orgs, want >= 300", n)
	}
}

// blockOrgs is the owning org's name of every block, in prefix order.
func blockOrgs(db *DB) []string {
	names := make([]string, len(db.prefixes))
	for i, prefix := range db.prefixes {
		names[i] = db.blocks[prefix].org.Name
	}
	return names
}

// orgsOf is the set of orgs that own a block.
func orgsOf(db *DB) map[*Org]bool {
	orgs := make(map[*Org]bool)
	for _, b := range db.blocks {
		orgs[b.org] = true
	}
	return orgs
}

func TestOrgKindString(t *testing.T) {
	tests := []struct {
		kind OrgKind
		want string
	}{
		{kind: OrgTelecom, want: "telecom"},
		{kind: OrgHosting, want: "hosting"},
		{kind: OrgBackbone, want: "backbone"},
		{kind: OrgKind(99), want: "OrgKind(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestInfrastructureKind(t *testing.T) {
	infra := []OrgKind{OrgHosting, OrgCloud, OrgDatacenter, OrgRegistrar, OrgBackbone}
	eyeball := []OrgKind{OrgTelecom, OrgBroadband, OrgEnterprise}
	for _, k := range infra {
		if !k.InfrastructureKind() {
			t.Errorf("%v should be infrastructure", k)
		}
	}
	for _, k := range eyeball {
		if k.InfrastructureKind() {
			t.Errorf("%v should not be infrastructure", k)
		}
	}
}
