package geo

import (
	"math/rand"
	"testing"
)

func randPoints(rng *rand.Rand, n int) []LatLon {
	pts := make([]LatLon, n)
	for i := range pts {
		pts[i] = LatLon{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
	}
	return pts
}

func cachePoints(pts []LatLon) []CachedPoint {
	out := make([]CachedPoint, len(pts))
	for i, p := range pts {
		out[i] = NewCachedPoint(p)
	}
	return out
}

// TestCachedVariantsBitIdentical pins the contract the dispersion index
// relies on: every *Cached function returns the exact float64 bits of its
// uncached original, so switching the scan kernels to cached points cannot
// move any statistic by even one ulp.
func TestCachedVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		pts := randPoints(rng, 2+rng.Intn(30))
		cached := cachePoints(pts)

		a, b := pts[0], pts[1]
		ca, cb := cached[0], cached[1]
		if got, want := HaversineCached(ca, cb), Haversine(a, b); got != want {
			t.Fatalf("HaversineCached = %v, Haversine = %v", got, want)
		}
		gc, gok := CenterCached(cached)
		wc, wok := Center(pts)
		if gok != wok || gc != wc {
			t.Fatalf("CenterCached = %v,%v; Center = %v,%v", gc, gok, wc, wok)
		}
		cc := NewCachedPoint(wc)
		for i := range pts {
			if got, want := SignedDistanceCached(cc, cached[i]), SignedDistance(wc, pts[i]); got != want {
				t.Fatalf("SignedDistanceCached = %v, SignedDistance = %v", got, want)
			}
		}
		gd, gok := DispersionCached(cached)
		wd, wok := Dispersion(pts)
		if gok != wok || gd != wd {
			t.Fatalf("DispersionCached = %v,%v; Dispersion = %v,%v", gd, gok, wd, wok)
		}
		checkWeightedSignedDistances(t, a, b, rng.Float64()*10, rng.Float64()*10)
	}
}

// checkWeightedSignedDistances holds the two-point kernel to what it
// replaces: WeightedCenter, then SignedDistance from it to each endpoint.
func checkWeightedSignedDistances(t *testing.T, a, b LatLon, wa, wb float64) {
	t.Helper()
	da, db, ok := WeightedSignedDistances(NewCenterPoint(a), NewCenterPoint(b), wa, wb)
	c, wok := WeightedCenter(a, b, wa, wb)
	var wa2, wb2 float64
	if wok {
		wa2, wb2 = SignedDistance(c, a), SignedDistance(c, b)
	}
	if ok != wok || da != wa2 || db != wb2 {
		t.Fatalf("WeightedSignedDistances(%v, %v, %v, %v) = %v, %v, %v; want %v, %v, %v",
			a, b, wa, wb, da, db, ok, wa2, wb2, wok)
	}
}

// TestWeightedSignedDistancesEdges runs the two-point kernel's bit-identity
// check where the sign and center rules branch.
func TestWeightedSignedDistancesEdges(t *testing.T) {
	for _, tc := range []struct {
		name   string
		a, b   LatLon
		wa, wb float64
	}{
		{"antimeridian", LatLon{Lat: 10, Lon: 179.5}, LatLon{Lat: -5, Lon: -179.8}, 3, 1},
		{"antimeridian reversed", LatLon{Lat: -5, Lon: -179.8}, LatLon{Lat: 10, Lon: 179.5}, 1, 3},
		{"north pole", LatLon{Lat: 90, Lon: 0}, LatLon{Lat: 60, Lon: 120}, 2, 5},
		{"pole to pole", LatLon{Lat: 90, Lon: 0}, LatLon{Lat: -89.9, Lon: 45}, 1, 1},
		{"same meridian", LatLon{Lat: 10, Lon: 30}, LatLon{Lat: 50, Lon: 30}, 7, 3},
		{"same point", LatLon{Lat: 48.85, Lon: 2.35}, LatLon{Lat: 48.85, Lon: 2.35}, 4, 9},
		{"antipodal cancellation", LatLon{Lat: 0, Lon: 0}, LatLon{Lat: 0, Lon: 180}, 1, 1},
		{"antipodal off-equator", LatLon{Lat: 30, Lon: -60}, LatLon{Lat: -30, Lon: 120}, 2, 2},
		{"zero weight", LatLon{Lat: 55.75, Lon: 37.62}, LatLon{Lat: 50.45, Lon: 30.52}, 35, 0},
		{"zero total", LatLon{Lat: 55.75, Lon: 37.62}, LatLon{Lat: 50.45, Lon: 30.52}, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) { checkWeightedSignedDistances(t, tc.a, tc.b, tc.wa, tc.wb) })
	}
}

// TestPickByWeightMatchesLinearScan pins weighted placement to its
// formula: a linear scan over every allocated /16 finds each country
// holding round(Weight × BlocksPerWeight) blocks, at least one, plus the
// infrastructure block NewDB forces where its draw produced none.
func TestPickByWeightMatchesLinearScan(t *testing.T) {
	db := NewDB(DBConfig{Seed: 3})
	held := make(map[string]int)
	for _, prefix := range db.prefixes {
		loc, ok := db.Lookup(addrFromUint32(prefix << 16))
		if !ok {
			t.Fatalf("allocated prefix %d does not resolve", prefix)
		}
		held[loc.CountryCode]++
	}
	for _, c := range db.Countries().Countries() {
		want := max(1, int(c.Weight*db.cfg.BlocksPerWeight+0.5))
		if got := held[c.Code]; got != want && got != want+1 {
			t.Errorf("%s (weight %v) holds %d blocks, want %d or %d", c.Code, c.Weight, got, want, want+1)
		}
	}
}

// TestCachedKernelsZeroAlloc holds every cached kernel to zero
// allocations (DESIGN §5b): the dispersion scan calls the first four per
// bot reference, the generator's cluster search the last one per cluster.
func TestCachedKernelsZeroAlloc(t *testing.T) {
	pts := cachePoints(randPoints(rand.New(rand.NewSource(5)), 64))
	centers := []CenterPoint{NewCenterPoint(pts[0].Deg), NewCenterPoint(pts[1].Deg)}
	var sink float64
	for name, kernel := range map[string]func(){
		"HaversineCached":      func() { sink += HaversineCached(pts[0], pts[1]) },
		"CenterCached":         func() { c, _ := CenterCached(pts); sink += c.Lat },
		"SignedDistanceCached": func() { sink += SignedDistanceCached(pts[0], pts[1]) },
		"DispersionCached":     func() { d, _ := DispersionCached(pts); sink += d },
		"WeightedSignedDistances": func() {
			da, db, _ := WeightedSignedDistances(centers[0], centers[1], 3, 1)
			sink += da + db
		},
	} {
		if n := testing.AllocsPerRun(100, kernel); n != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, n)
		}
	}
	_ = sink
}
