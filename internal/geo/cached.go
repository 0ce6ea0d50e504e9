package geo

import "math"

// CachedPoint is a LatLon with its 3-D unit vector precomputed. The
// dispersion scan reads the same bot locations across thousands of
// attacks, so the dense bot index holds one per bot: the centroid sums the
// vectors, and the distance from the centroid is the chord between two
// vectors, with no per-bot trigonometry left in the scan.
type CachedPoint struct {
	Deg     LatLon  // original coordinates in degrees
	X, Y, Z float64 // the unit vector, as Center derives it
}

// NewCachedPoint precomputes the unit vector of p.
func NewCachedPoint(p LatLon) CachedPoint {
	lat, lon := degToRad(p.Lat), degToRad(p.Lon)
	cosLat := math.Cos(lat)
	return CachedPoint{Deg: p, X: cosLat * math.Cos(lon), Y: cosLat * math.Sin(lon), Z: math.Sin(lat)}
}

// Add adds a point to the centroid by its cached unit vector: Center's
// sums, bit for bit.
func (c *Centroid) Add(p CachedPoint) { c.add(p.X, p.Y, p.Z, p.Deg) }

// Center returns Center over the points added so far, bit for bit, with
// its unit vector derived from those degrees, and false when none was
// added.
func (c *Centroid) Center() (CachedPoint, bool) {
	center, ok := c.center()
	if !ok {
		return CachedPoint{}, false
	}
	return NewCachedPoint(center), true
}

// SignedDistanceCached is SignedDistance from center to p, taken from
// their unit vectors u and v: 2R·atan2(|u−v|, |u+v|) is R times the
// central angle, since |u−v| and |u+v| are twice its half-angle's sine
// and cosine. The atan2 form is well conditioned at every angle, where
// asin of the half chord loses digits near antipodes. It agrees with the
// haversine formula to rounding, not bit for bit.
func SignedDistanceCached(center, p CachedPoint) float64 {
	dx, dy, dz := center.X-p.X, center.Y-p.Y, center.Z-p.Z
	sx, sy, sz := center.X+p.X, center.Y+p.Y, center.Z+p.Z
	d := 2 * EarthRadiusKm * math.Atan2(math.Sqrt(dx*dx+dy*dy+dz*dz), math.Sqrt(sx*sx+sy*sy+sz*sz))
	return signed(d, center.Deg, p.Deg)
}

// CenterPoint is a point with the trigonometry of its radians
// precomputed. The generator's cluster centres stay fixed between
// recruitments and enter thousands of two-point evaluations each, so they
// carry what WeightedSignedDistances would otherwise re-derive per call.
type CenterPoint struct {
	Deg            LatLon
	LatRad, LonRad float64
	CosLat, SinLat float64
	CosLon, SinLon float64
}

// NewCenterPoint precomputes the trigonometry of p.
func NewCenterPoint(p LatLon) CenterPoint {
	lat, lon := degToRad(p.Lat), degToRad(p.Lon)
	return CenterPoint{
		Deg: p, LatRad: lat, LonRad: lon,
		CosLat: math.Cos(lat), SinLat: math.Sin(lat),
		CosLon: math.Cos(lon), SinLon: math.Sin(lon),
	}
}

// WeightedSignedDistances returns the signed distances of a and b from
// their weighted center, and false when wa+wb <= 0. It is bit-identical to
//
//	c, ok := WeightedCenter(a.Deg, b.Deg, wa, wb)
//	SignedDistance(c, a.Deg), SignedDistance(c, b.Deg), ok
//
// (WeightedCenter is the two-point centroid its tests keep in
// export_test.go), with both endpoints' trig read from the cache and the
// center's radians and cos(lat) derived once for both distances. The
// generated workload depends on its bits, so it keeps the haversine
// formula.
func WeightedSignedDistances(a, b CenterPoint, wa, wb float64) (da, db float64, ok bool) {
	total := wa + wb
	if total <= 0 {
		return 0, 0, false
	}
	x := (wa*a.CosLat*a.CosLon + wb*b.CosLat*b.CosLon) / total
	y := (wa*a.CosLat*a.SinLon + wb*b.CosLat*b.SinLon) / total
	z := (wa*a.SinLat + wb*b.SinLat) / total
	var center LatLon
	if norm := math.Sqrt(x*x + y*y + z*z); norm < 1e-12 {
		center = a.Deg // antipodal cancellation; stay deterministic
	} else {
		center = LatLon{Lat: math.Asin(z/norm) * 180 / math.Pi, Lon: math.Atan2(y, x) * 180 / math.Pi}
	}
	lat, lon := degToRad(center.Lat), degToRad(center.Lon)
	cosLat := math.Cos(lat)
	da = signed(haversine(a.LatRad-lat, a.LonRad-lon, cosLat, a.CosLat), center, a.Deg)
	db = signed(haversine(b.LatRad-lat, b.LonRad-lon, cosLat, b.CosLat), center, b.Deg)
	return da, db, true
}
