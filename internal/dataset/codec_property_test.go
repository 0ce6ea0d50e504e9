package dataset

import (
	"bytes"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// randomAttack generates a structurally valid random attack.
func randomAttack(rng *rand.Rand, id DDoSID) *Attack {
	families := slices.Concat(ActiveFamilies, InactiveFamilies)
	cities := []string{"Moscow", "New York", "Sao Paulo", "a b c", "x,y"}
	orgs := []string{"Org One", "Hosting, Inc", `Quote"Org`, "Plain"}
	nBots := 1 + rng.Intn(6)
	bots := make([]netip.Addr, nBots)
	for i := range bots {
		bots[i] = netip.AddrFrom4([4]byte{
			byte(1 + rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(250)),
		})
	}
	start := time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC).
		Add(time.Duration(rng.Intn(200*24)) * time.Hour)
	return &Attack{
		ID:            id,
		BotnetID:      BotnetID(1 + rng.Intn(600)),
		Family:        families[rng.Intn(len(families))],
		Category:      Categories[rng.Intn(len(Categories))],
		TargetIP:      netip.AddrFrom4([4]byte{byte(1 + rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(250))}),
		Start:         start,
		End:           start.Add(time.Duration(rng.Intn(100000)) * time.Second),
		BotIPs:        bots,
		TargetASN:     1 + rng.Intn(60000),
		TargetCountry: []string{"US", "RU", "DE", "CN"}[rng.Intn(4)],
		TargetCity:    cities[rng.Intn(len(cities))],
		TargetOrg:     orgs[rng.Intn(len(orgs))],
		TargetLat:     rng.Float64()*180 - 90,
		TargetLon:     rng.Float64()*360 - 180,
	}
}

// equalAttack compares the round-trippable fields of two attacks.
func equalAttack(a, b *Attack) bool {
	if a.ID != b.ID || a.BotnetID != b.BotnetID || a.Family != b.Family ||
		a.Category != b.Category || a.TargetIP != b.TargetIP ||
		!a.Start.Equal(b.Start) || !a.End.Equal(b.End) ||
		a.TargetASN != b.TargetASN || a.TargetCountry != b.TargetCountry ||
		a.TargetCity != b.TargetCity || a.TargetOrg != b.TargetOrg {
		return false
	}
	// Coordinates survive exactly: the encoder writes shortest
	// round-trip floats.
	if a.TargetLat != b.TargetLat || a.TargetLon != b.TargetLon {
		return false
	}
	if len(a.BotIPs) != len(b.BotIPs) {
		return false
	}
	for i := range a.BotIPs {
		if a.BotIPs[i] != b.BotIPs[i] {
			return false
		}
	}
	return true
}

// Property: any batch of random valid attacks survives a JSONL round trip
// exactly, including cities with spaces/commas and organizations with
// quotes.
func TestJSONLRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%20) + 1
		attacks := make([]*Attack, n)
		for i := range attacks {
			attacks[i] = randomAttack(rng, DDoSID(i+1))
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, attacks); err != nil {
			return false
		}
		got, err := ReadJSONL(&buf)
		if err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i := range got {
			if !equalAttack(got[i], attacks[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: random valid attacks always index into a store whose queries
// agree with direct scans.
func TestStoreIndexConsistencyProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%30) + 1
		attacks := make([]*Attack, n)
		for i := range attacks {
			attacks[i] = randomAttack(rng, DDoSID(i+1))
		}
		s, err := NewStore(attacks, nil, nil)
		if err != nil {
			return false
		}
		// Per-family index totals must sum to the store size.
		sum := 0
		for _, fam := range s.Families().All() {
			sum += s.RowsByFamily(fam).Len()
		}
		if sum != n {
			return false
		}
		// Per-target index totals too.
		sum = 0
		for _, tid := range s.TargetIDs().All() {
			sum += s.TargetRows(tid).Len()
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
