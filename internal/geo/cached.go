package geo

import "math"

// CachedPoint is a LatLon with its trigonometry precomputed: radians,
// cos(lat), and the 3-D unit vector. The dispersion kernels evaluate the
// same bot locations across thousands of attacks, so hoisting the
// per-point trig out of Center/Haversine removes most of the scan's math
// work. Every cached field is derived with exactly the expressions (and
// operation order) of the uncached functions, so the *Cached variants
// below are bit-identical to their originals — callers may mix them
// freely without perturbing any statistic.
type CachedPoint struct {
	Deg    LatLon  // original coordinates in degrees
	LatRad float64 // degToRad(Deg.Lat)
	LonRad float64 // degToRad(Deg.Lon)
	CosLat float64 // math.Cos(LatRad)
	X      float64 // math.Cos(LatRad) * math.Cos(LonRad)
	Y      float64 // math.Cos(LatRad) * math.Sin(LonRad)
	Z      float64 // math.Sin(LatRad)
}

// NewCachedPoint precomputes the trigonometry of p.
func NewCachedPoint(p LatLon) CachedPoint {
	lat, lon := degToRad(p.Lat), degToRad(p.Lon)
	cosLat := math.Cos(lat)
	return CachedPoint{
		Deg:    p,
		LatRad: lat,
		LonRad: lon,
		CosLat: cosLat,
		X:      cosLat * math.Cos(lon),
		Y:      cosLat * math.Sin(lon),
		Z:      math.Sin(lat),
	}
}

// Ref is a read-only reference to a CachedPoint held in a table other
// readers share, such as the dense bot index's: a formation's points are
// read in place, by reference, and nothing writes through a Ref.
type Ref struct{ p *CachedPoint }

// RefOf makes a read-only reference to *p.
func RefOf(p *CachedPoint) Ref { return Ref{p} }

// Add adds a point to the centroid; the point's unit vector is read from
// its cache.
func (c *Centroid) Add(r Ref) { c.add(r.p.X, r.p.Y, r.p.Z, r.p.Deg) }

// Center returns Center over the points added so far, bit for bit, with
// the trig SignedDistanceCached reads from it, and false when none was
// added.
func (c *Centroid) Center() (CachedPoint, bool) {
	center, ok := c.center()
	if !ok {
		return CachedPoint{}, false
	}
	return distanceOrigin(center), true
}

// distanceOrigin is center with the fields SignedDistanceCached reads from
// its first argument: degrees, radians and cos(lat). The unit vector is
// left zero; a center is never summed into a Centroid.
func distanceOrigin(center LatLon) CachedPoint {
	lat := degToRad(center.Lat)
	return CachedPoint{Deg: center, LatRad: lat, LonRad: degToRad(center.Lon), CosLat: math.Cos(lat)}
}

// SignedDistanceCached is SignedDistance from a precomputed center to a
// point read in place; bit-identical to SignedDistance(center.Deg, p.Deg).
func SignedDistanceCached(center *CachedPoint, p Ref) float64 {
	d := haversine(p.p.LatRad-center.LatRad, p.p.LonRad-center.LonRad, center.CosLat, p.p.CosLat)
	return signed(d, center.Deg, p.p.Deg)
}

// CenterPoint is a CachedPoint that also keeps the cosine and sine of its
// longitude. The generator's cluster centres stay fixed between
// recruitments and enter thousands of two-point evaluations each, so they
// carry the trig WeightedSignedDistances would otherwise re-derive per
// call. Bots stay CachedPoints: the dense bot index holds one per bot, and
// two more fields there would cost every report pass.
type CenterPoint struct {
	CachedPoint
	CosLon float64 // math.Cos(LonRad)
	SinLon float64 // math.Sin(LonRad)
}

// NewCenterPoint precomputes the trigonometry of p.
func NewCenterPoint(p LatLon) CenterPoint {
	c := NewCachedPoint(p)
	return CenterPoint{CachedPoint: c, CosLon: math.Cos(c.LonRad), SinLon: math.Sin(c.LonRad)}
}

// WeightedSignedDistances returns the signed distances of a and b from
// their weighted center, and false when wa+wb <= 0. It is bit-identical to
//
//	c, ok := WeightedCenter(a.Deg, b.Deg, wa, wb)
//	SignedDistance(c, a.Deg), SignedDistance(c, b.Deg), ok
//
// (WeightedCenter is the two-point centroid its tests keep in
// export_test.go), with both endpoints' trig read from the cache (Z is math.Sin(LatRad))
// and the center's radians and cos(lat) derived once for both distances.
func WeightedSignedDistances(a, b CenterPoint, wa, wb float64) (da, db float64, ok bool) {
	total := wa + wb
	if total <= 0 {
		return 0, 0, false
	}
	x := (wa*a.CosLat*a.CosLon + wb*b.CosLat*b.CosLon) / total
	y := (wa*a.CosLat*a.SinLon + wb*b.CosLat*b.SinLon) / total
	z := (wa*a.Z + wb*b.Z) / total
	var center LatLon
	if norm := math.Sqrt(x*x + y*y + z*z); norm < 1e-12 {
		center = a.Deg // antipodal cancellation; stay deterministic
	} else {
		center = LatLon{Lat: math.Asin(z/norm) * 180 / math.Pi, Lon: math.Atan2(y, x) * 180 / math.Pi}
	}
	c := distanceOrigin(center)
	return SignedDistanceCached(&c, RefOf(&a.CachedPoint)), SignedDistanceCached(&c, RefOf(&b.CachedPoint)), true
}
