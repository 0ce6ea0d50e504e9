package core

import (
	"bytes"
	"math"
	"math/rand"
	"net/netip"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/geo"
	"botscope/internal/synth"
)

// dispersionFixture builds a store whose attacks have overlapping
// many-bot formations — the shape the dense dispersion kernel is tuned
// for.
func dispersionFixture(t testing.TB) *dataset.Store {
	t.Helper()
	bots := dispersionBots()
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

// dispersionBots is the fixture's Botlist: 200 bots in one country,
// spread over the globe.
func dispersionBots() []*dataset.Bot {
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
	return bots
}

// TestDispersionScanZeroAlloc pins what the scan is built for:
// computing one attack's dispersion allocates nothing.
func TestDispersionScanZeroAlloc(t *testing.T) {
	s := dispersionFixture(t)
	ix := s.BotDense()
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := rowDispersion(ix, 0); !ok {
			t.Fatal("dispersion not ok")
		}
	})
	if allocs != 0 {
		t.Errorf("per-attack dispersion allocates %.1f objects, want 0", allocs)
	}
}

// dispersionAgrees reports whether a scanned dispersion got matches
// geo.Dispersion over pts: the scan's chord distances agree with the
// haversine formula to rounding, so the sums agree within 1e-9 of the
// distances' total, Σ|dᵢ|. A bound relative to |Σdᵢ| would fail where the
// signed distances cancel (2.7e-12 km against 9.1e-13 km on a two-bot
// attack). Near an antipode the haversine reference is the inexact side:
// asin(√h) turns a rounding of 4ε in h into up to 2R·√(4ε) ≈ 4e-4 km, so
// each distance adds that loss at its own h to the bound.
func dispersionAgrees(got float64, pts []geo.LatLon) (want float64, ok bool) {
	want, _ = geo.Dispersion(pts)
	c, _ := geo.Center(pts)
	var total, slack float64
	for _, p := range pts {
		d := geo.Haversine(c, p)
		h := math.Pow(math.Sin(d/(2*geo.EarthRadiusKm)), 2)
		total += d
		slack += 2 * geo.EarthRadiusKm * (math.Asin(math.Sqrt(h)) - math.Asin(math.Sqrt(max(0, h-4*0x1p-52))))
	}
	return want, math.Abs(got-want) <= 1e-9*total+slack
}

// TestRowDispersionMatchesDispersion holds the in-place scan to
// geo.Dispersion over the resolved bots' locations (dispersionAgrees) on
// 200 random formations of 2 to 31 bots anywhere on the globe, a tenth of
// them an antipodal pair and some sources unresolved.
func TestRowDispersionMatchesDispersion(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var (
		attacks []*dataset.Attack
		bots    []*dataset.Bot
		want    [][]geo.LatLon
	)
	for trial := 0; trial < 200; trial++ {
		pts := make([]geo.LatLon, 2+rng.Intn(30))
		for j := range pts {
			pts[j] = geo.LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		}
		if trial%10 == 0 {
			lon := pts[0].Lon + 180
			if lon > 180 {
				lon -= 360
			}
			pts = append(pts[:1], geo.LatLon{Lat: -pts[0].Lat, Lon: lon})
		}
		a := mkAttack(dataset.DDoSID(trial+1), dataset.Dirtjumper, 1, "5.5.5.5", t0.Add(time.Duration(trial)*time.Minute), time.Minute)
		a.BotIPs = nil
		var resolved []geo.LatLon
		for j, p := range pts {
			ip := netip.AddrFrom4([4]byte{10, byte(trial), byte(j), 1})
			a.BotIPs = append(a.BotIPs, ip)
			if j > 1 && rng.Intn(8) == 0 {
				continue // not in the Botlist
			}
			resolved = append(resolved, p)
			bots = append(bots, &dataset.Bot{IP: ip, ASN: 1, CountryCode: "BR", City: "Sao Paulo", Org: "Net", Lat: p.Lat, Lon: p.Lon})
		}
		attacks = append(attacks, a)
		want = append(want, resolved)
	}
	s, err := dataset.NewStore(attacks, nil, bots)
	if err != nil {
		t.Fatal(err)
	}
	ix := s.BotDense()
	for row := 0; row < s.NumAttacks(); row++ {
		pts := want[s.AttackAt(row).ID()-1]
		got, gok := rowDispersion(ix, row)
		if wd, ok := dispersionAgrees(got, pts); !gok || !ok {
			t.Fatalf("attack %d (%d bots): scan %v,%v; geo.Dispersion %v", row, len(pts), got, gok, wd)
		}
	}
}

// TestDenseDispersionMatchesMapScan recomputes the series with the old
// map-resolving, per-attack-allocating approach over geo.Dispersion and
// requires the same attacks, with values that agree (dispersionAgrees).
func TestDenseDispersionMatchesMapScan(t *testing.T) {
	s := dispersionFixture(t)
	bots := map[netip.Addr]geo.LatLon{}
	for _, b := range dispersionBots() {
		bots[b.IP] = geo.LatLon{Lat: b.Lat, Lon: b.Lon}
	}
	for _, f := range s.Families().All() {
		got := DispersionSeries(s, f)
		var want [][]geo.LatLon
		var ids []dataset.DDoSID
		for _, row := range s.RowsByFamily(f).All() {
			a := s.AttackRecordAt(int(row))
			pts := make([]geo.LatLon, 0, len(a.BotIPs))
			for _, ip := range a.BotIPs {
				if p, ok := bots[ip]; ok {
					pts = append(pts, p)
				}
			}
			if len(pts) == 0 {
				continue
			}
			want = append(want, pts)
			ids = append(ids, a.ID)
		}
		if len(got) != len(want) {
			t.Fatalf("family %s: %d points dense, %d points reference", f, len(got), len(want))
		}
		for i := range got {
			if wd, ok := dispersionAgrees(got[i].Value, want[i]); got[i].AttackID != ids[i] || !ok {
				t.Fatalf("family %s point %d: dense %+v, reference attack %d, %v km", f, i, got[i], ids[i], wd)
			}
		}
	}
}

func BenchmarkDispersionSeries(b *testing.B) {
	s := dispersionFixture(b)
	f := s.Families().At(0)
	DispersionSeries(s, f) // build the index outside the timed loop
	b.ReportAllocs()
	for b.Loop() {
		if got := DispersionSeries(s, f); len(got) == 0 {
			b.Fatal("empty series")
		}
	}
}

var (
	benchOnce  sync.Once
	benchSt    *dataset.Store
	benchStErr error
)

// benchStore is the benches' fixture: seed 1 at scale 0.1
// (BOTSCOPE_BENCH_SCALE=1.0 for a paper-size run), read back from its
// snapshot as a report run opens one, so no attack record exists until a
// kernel builds it.
func benchStore(b *testing.B) *dataset.Store {
	b.Helper()
	benchOnce.Do(func() {
		scale := 0.1
		if v, err := strconv.ParseFloat(os.Getenv("BOTSCOPE_BENCH_SCALE"), 64); err == nil && v > 0 {
			scale = v
		}
		s, err := synth.GenerateStore(synth.Config{Seed: 1, Scale: scale})
		if err != nil {
			benchStErr = err
			return
		}
		var buf bytes.Buffer
		if benchStErr = dataset.WriteSnapshot(&buf, s); benchStErr == nil {
			benchSt, benchStErr = dataset.ReadSnapshot(&buf)
		}
	})
	if benchStErr != nil {
		b.Fatal(benchStErr)
	}
	return benchSt
}

// BenchmarkCollaborations detects §V's collaborations; its budget is the
// two per-row time arrays and the events.
func BenchmarkCollaborations(b *testing.B) {
	s := benchStore(b)
	DetectCollaborations(s) // build the store's target index outside the timed loop
	b.ReportAllocs()
	for b.Loop() {
		if len(DetectCollaborations(s)) == 0 {
			b.Fatal("no collaborations")
		}
	}
}

// BenchmarkChains detects and summarizes §V's multistage chains.
func BenchmarkChains(b *testing.B) {
	s := benchStore(b)
	AnalyzeChains(s) // build the store's target index outside the timed loop
	b.ReportAllocs()
	for b.Loop() {
		if len(AnalyzeChains(s).Chains) == 0 {
			b.Fatal("no chains")
		}
	}
}
