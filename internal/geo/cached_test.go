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
			if got, want := SignedDistanceTo(wc, cached[i]), SignedDistance(wc, pts[i]); got != want {
				t.Fatalf("SignedDistanceTo = %v, SignedDistance = %v", got, want)
			}
		}
		gd, gok := DispersionCached(cached)
		wd, wok := Dispersion(pts)
		if gok != wok || gd != wd {
			t.Fatalf("DispersionCached = %v,%v; Dispersion = %v,%v", gd, gok, wd, wok)
		}
		wa, wb := rng.Float64()*10, rng.Float64()*10
		gwc, gok := WeightedCenterCached(ca, cb, wa, wb)
		wwc, wok := WeightedCenter(a, b, wa, wb)
		if gok != wok || gwc != wwc {
			t.Fatalf("WeightedCenterCached = %v,%v; WeightedCenter = %v,%v", gwc, gok, wwc, wok)
		}
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
// bot reference, the generator's cluster search the last two per cluster.
func TestCachedKernelsZeroAlloc(t *testing.T) {
	pts := cachePoints(randPoints(rand.New(rand.NewSource(5)), 64))
	var sink float64
	for name, kernel := range map[string]func(){
		"HaversineCached":      func() { sink += HaversineCached(pts[0], pts[1]) },
		"CenterCached":         func() { c, _ := CenterCached(pts); sink += c.Lat },
		"SignedDistanceCached": func() { sink += SignedDistanceCached(pts[0], pts[1]) },
		"DispersionCached":     func() { d, _ := DispersionCached(pts); sink += d },
		"WeightedCenterCached": func() { c, _ := WeightedCenterCached(pts[0], pts[1], 3, 1); sink += c.Lon },
		"SignedDistanceTo":     func() { sink += SignedDistanceTo(pts[2].Deg, pts[1]) },
	} {
		if n := testing.AllocsPerRun(100, kernel); n != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, n)
		}
	}
	_ = sink
}
