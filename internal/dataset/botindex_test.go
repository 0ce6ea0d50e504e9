package dataset

import (
	"net/netip"
	"sync"
	"testing"
	"time"
)

func denseFixture(t *testing.T) *Store {
	t.Helper()
	bots := make([]*Bot, 0, 40)
	for i := 0; i < 40; i++ {
		bots = append(bots, &Bot{
			IP:          netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
			ASN:         100 + i%7,
			CountryCode: []string{"BR", "TR", "US"}[i%3],
			City:        []string{"Sao Paulo", "Istanbul", "Ashburn"}[i%3],
			Org:         "Org",
			Lat:         float64(i) - 20,
			Lon:         float64(2 * i),
		})
	}
	attacks := make([]*Attack, 0, 30)
	for i := 0; i < 30; i++ {
		a := validAttack(DDoSID(i + 1))
		a.Start = t0.Add(time.Duration(i) * time.Minute)
		a.End = a.Start.Add(time.Hour)
		a.BotIPs = nil
		for j := 0; j < 5; j++ {
			// Overlapping source sets across attacks, plus one IP per
			// attack that never resolves in the Botlist.
			a.BotIPs = append(a.BotIPs, bots[(i*3+j*7)%len(bots)].IP)
		}
		a.BotIPs = append(a.BotIPs, netip.AddrFrom4([4]byte{172, 16, byte(i), 1}))
		attacks = append(attacks, a)
	}
	s, err := NewStore(attacks, nil, bots)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBotIndexMatchesMaps pins the dense index to the maps it replaces:
// every attack row's RefsRow span aligns with its BotIPs, ids round-trip
// through ID/IP, and Bot agrees with the Botlist rows for resolved and
// unresolved IPs.
func TestBotIndexMatchesMaps(t *testing.T) {
	s := denseFixture(t)
	ix := s.BotDense()
	botRows := make(map[netip.Addr]BotView, s.NumBots())
	for r := int32(0); r < int32(s.NumBots()); r++ {
		botRows[s.Cols().BotRow(r).IP()] = s.Cols().BotRow(r)
	}

	distinct := make(map[netip.Addr]bool)
	for row, a := range s.Attacks() {
		refs := ix.RefsRow(row).Clone()
		if len(refs) != len(a.BotIPs) {
			t.Fatalf("attack %d: RefsRow len %d, BotIPs len %d", a.ID, len(refs), len(a.BotIPs))
		}
		for i, id := range refs {
			if ix.IP(id) != a.BotIPs[i] {
				t.Fatalf("attack %d ref %d: IP(%d) = %v, want %v", a.ID, i, id, ix.IP(id), a.BotIPs[i])
			}
			got, ok := ix.ID(a.BotIPs[i])
			if !ok || got != id {
				t.Fatalf("ID(%v) = %d,%v, want %d", a.BotIPs[i], got, ok, id)
			}
			row, resolved := botRows[a.BotIPs[i]]
			view, ok := ix.Bot(id)
			if resolved != ok || resolved != ix.Resolved(id) || (resolved && (view.IP() != row.IP() || view.ASN() != row.ASN())) {
				t.Fatalf("Bot(%d) disagrees with the Botlist row of %v", id, a.BotIPs[i])
			}
			distinct[a.BotIPs[i]] = true
		}
	}
	if ix.NumIDs() != len(distinct) {
		t.Fatalf("NumIDs = %d, want %d distinct attack-referenced IPs", ix.NumIDs(), len(distinct))
	}
}

// TestBotDenseConcurrent races first-time index construction under -race.
func TestBotDenseConcurrent(t *testing.T) {
	s := denseFixture(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ix := s.BotDense()
			if ix.NumIDs() == 0 {
				t.Error("BotDense returned an empty index")
			}
		}()
	}
	wg.Wait()
}
