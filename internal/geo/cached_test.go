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

// TestPickByWeightMatchesLinearScan pins the binary-searched PickByWeight
// to the old linear accumulation scan on a dense sweep plus random draws:
// the synthetic GeoIP database is seeded through this function, so any
// difference would change every generated workload byte.
func TestPickByWeightMatchesLinearScan(t *testing.T) {
	a := NewAtlas()
	linear := func(u float64) *Country {
		if u < 0 {
			u = 0
		}
		if u >= 1 {
			u = 0.9999999999999999
		}
		target := u * a.total
		var acc float64
		for _, c := range a.ordered {
			acc += c.Weight
			if target < acc {
				return c
			}
		}
		return a.ordered[len(a.ordered)-1]
	}
	check := func(u float64) {
		if got, want := a.PickByWeight(u), linear(u); got != want {
			t.Fatalf("PickByWeight(%v) = %s, linear scan gives %s", u, got.Code, want.Code)
		}
	}
	for i := 0; i <= 100000; i++ {
		check(float64(i) / 100000)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		check(rng.Float64())
	}
	// Exact cumulative boundaries are where a search off-by-one would bite.
	var acc float64
	for _, c := range a.ordered {
		acc += c.Weight
		check(acc / a.total)
		check(acc/a.total - 1e-16)
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
