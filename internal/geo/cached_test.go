package geo

import (
	"math"
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

// centroidOf adds every point to a Centroid.
func centroidOf(pts []CachedPoint) (CachedPoint, bool) {
	var c Centroid
	for _, p := range pts {
		c.Add(p)
	}
	return c.Center()
}

// TestCachedVariantsBitIdentical pins the kernels whose bits the outputs
// depend on: the Centroid the dispersion scan sums is Center bit for bit,
// and the generator's two-point kernel is WeightedCenter then
// SignedDistance bit for bit (the generated workload depends on it).
// SignedDistanceCached is not bit-identical to SignedDistance;
// TestSignedDistanceCachedMatchesHaversine holds it.
func TestCachedVariantsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		pts := randPoints(rng, 2+rng.Intn(30))
		antipodal := trial%10 == 0
		if antipodal {
			pts = append(pts[:1], LatLon{Lat: -pts[0].Lat, Lon: pts[0].Lon + 180})
		}
		gc, gok := centroidOf(cachePoints(pts))
		wc, wok := Center(pts)
		if gok != wok || gc != NewCachedPoint(wc) {
			t.Fatalf("Centroid = %v,%v; Center = %v,%v", gc, gok, wc, wok)
		}
		if antipodal && wc != pts[0] {
			t.Fatalf("antipodal pair %v: center %v, want the first point", pts, wc)
		}
		checkWeightedSignedDistances(t, pts[0], pts[1], rng.Float64()*10, rng.Float64()*10)
	}
	if _, ok := centroidOf(nil); ok {
		t.Error("empty Centroid has a center")
	}
}

// TestSignedDistanceCachedMatchesHaversine holds the chord kernel to
// SignedDistance: the same sign everywhere, the same distance within 1e-9
// relative (1e-9 km near zero) on random pairs, and half the
// circumference to 1e-12 relative on antipodal pairs, where the haversine
// formula itself is off by up to 2e-4 km.
func TestSignedDistanceCachedMatchesHaversine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		pts := randPoints(rng, 2)
		a, b := pts[0], pts[1]
		if trial%3 == 0 { // near neighbours, down to centimetres
			b = LatLon{Lat: a.Lat + rng.NormFloat64()*math.Pow(10, -rng.Float64()*7), Lon: a.Lon + rng.NormFloat64()*1e-3}
			b.Lat = max(-90, min(90, b.Lat))
		}
		got, want := SignedDistanceCached(NewCachedPoint(a), NewCachedPoint(b)), SignedDistance(a, b)
		if math.Abs(got-want) > 1e-9*max(math.Abs(want), 1) || math.Signbit(got) != math.Signbit(want) {
			t.Fatalf("SignedDistanceCached(%v, %v) = %v, SignedDistance = %v", a, b, got, want)
		}
	}
	half := math.Pi * EarthRadiusKm
	for _, a := range append(randPoints(rng, 100), LatLon{Lat: 90}, LatLon{Lat: 0, Lon: 180}, LatLon{Lat: 37, Lon: -180}) {
		lon := a.Lon + 180
		if lon > 180 {
			lon -= 360
		}
		b := LatLon{Lat: -a.Lat, Lon: lon}
		if got := math.Abs(SignedDistanceCached(NewCachedPoint(a), NewCachedPoint(b))); math.Abs(got-half) > 1e-12*half {
			t.Fatalf("antipodes %v, %v: |SignedDistanceCached| = %v, want πR = %v", a, b, got, half)
		}
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
// holding round(Weight × blocksPerWeight) blocks, at least one, plus the
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
		want := max(1, int(c.Weight*blocksPerWeight+0.5))
		if got := held[c.Code]; got != want && got != want+1 {
			t.Errorf("%s (weight %v) holds %d blocks, want %d or %d", c.Code, c.Weight, got, want, want+1)
		}
	}
}

// TestCachedKernelsZeroAlloc holds every cached kernel to zero
// allocations (DESIGN §5b): the dispersion scan calls the first two per
// bot reference, the generator's cluster search the last one per cluster.
func TestCachedKernelsZeroAlloc(t *testing.T) {
	pts := cachePoints(randPoints(rand.New(rand.NewSource(5)), 64))
	centers := []CenterPoint{NewCenterPoint(pts[0].Deg), NewCenterPoint(pts[1].Deg)}
	var sink float64
	for name, kernel := range map[string]func(){
		"Centroid":             func() { c, _ := centroidOf(pts); sink += c.Deg.Lat },
		"SignedDistanceCached": func() { sink += SignedDistanceCached(pts[0], pts[1]) },
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
