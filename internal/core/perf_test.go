package core

import (
	"net/netip"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/geo"
)

// dispersionFixture builds a store whose attacks have overlapping
// many-bot formations — the shape the dense dispersion kernel is tuned
// for.
func dispersionFixture(t testing.TB) *dataset.Store {
	t.Helper()
	bots := make([]*dataset.Bot, 0, 200)
	for i := 0; i < 200; i++ {
		bots = append(bots, &dataset.Bot{
			IP:          netip.AddrFrom4([4]byte{10, 1, byte(i / 200), byte(i % 200)}),
			ASN:         100,
			CountryCode: "BR",
			City:        "Sao Paulo",
			Org:         "Sao Paulo Net 1",
			Lat:         float64(i%90) - 45,
			Lon:         float64((i*7)%360) - 180,
		})
	}
	attacks := make([]*dataset.Attack, 0, 50)
	for i := 0; i < 50; i++ {
		a := mkAttack(dataset.DDoSID(i+1), dataset.Dirtjumper, 1, "5.5.5.5",
			t0.Add(time.Duration(i)*time.Hour), time.Hour)
		a.BotIPs = nil
		for j := 0; j < 40; j++ {
			a.BotIPs = append(a.BotIPs, bots[(i*13+j)%len(bots)].IP)
		}
		attacks = append(attacks, a)
	}
	s, err := dataset.NewStore(attacks, nil, bots)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDispersionScanZeroAlloc pins the tentpole property of the scan: once
// the per-family scratch buffer has grown to the largest formation,
// computing one attack's dispersion allocates nothing.
func TestDispersionScanZeroAlloc(t *testing.T) {
	s := dispersionFixture(t)
	ix := s.BotDense()
	scratch := make([]geo.CachedPoint, 0, s.AttackAt(0).Magnitude())
	allocs := testing.AllocsPerRun(100, func() {
		pts := appendRowPoints(scratch[:0], ix, 0)
		if _, ok := geo.DispersionCached(pts); !ok {
			t.Fatal("dispersion not ok")
		}
	})
	if allocs != 0 {
		t.Errorf("per-attack dispersion allocates %.1f objects, want 0", allocs)
	}
}

// TestDenseDispersionMatchesMapScan recomputes the series with the old
// map-resolving, per-attack-allocating approach and requires bit-equal
// values: the dense index is a pure representation change.
func TestDenseDispersionMatchesMapScan(t *testing.T) {
	s := dispersionFixture(t)
	bots := make(map[netip.Addr]dataset.BotView, s.NumBots())
	for r := int32(0); r < int32(s.NumBots()); r++ {
		bots[s.Cols().BotRow(r).IP()] = s.Cols().BotRow(r)
	}
	for _, f := range s.Families() {
		got := DispersionSeries(s, f)
		var want []DispersionPoint
		for _, row := range s.RowsByFamily(f) {
			a := s.AttackRecordAt(int(row))
			pts := make([]geo.LatLon, 0, len(a.BotIPs))
			for _, ip := range a.BotIPs {
				if b, ok := bots[ip]; ok {
					pts = append(pts, geo.LatLon{Lat: b.Lat(), Lon: b.Lon()})
				}
			}
			if len(pts) == 0 {
				continue
			}
			d, ok := geo.Dispersion(pts)
			if !ok {
				continue
			}
			want = append(want, DispersionPoint{AttackID: a.ID, Value: d})
		}
		if len(got) != len(want) {
			t.Fatalf("family %s: %d points dense, %d points reference", f, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("family %s point %d: dense %+v, reference %+v", f, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkDispersionSeries(b *testing.B) {
	s := dispersionFixture(b)
	f := s.Families()[0]
	DispersionSeries(s, f) // build the index outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := DispersionSeries(s, f); len(got) == 0 {
			b.Fatal("empty series")
		}
	}
}
