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

// HaversineCached is Haversine over precomputed points; bit-identical to
// Haversine(a.Deg, b.Deg).
func HaversineCached(a, b CachedPoint) float64 {
	dLat := b.LatRad - a.LatRad
	dLon := b.LonRad - a.LonRad
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + a.CosLat*b.CosLat*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// CenterCached is Center over precomputed points; bit-identical to
// Center over the same points in degrees.
func CenterCached(pts []CachedPoint) (LatLon, bool) {
	if len(pts) == 0 {
		return LatLon{}, false
	}
	var x, y, z float64
	for _, p := range pts {
		x += p.X
		y += p.Y
		z += p.Z
	}
	n := float64(len(pts))
	x, y, z = x/n, y/n, z/n
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-12 {
		// Antipodal cancellation; fall back to the first point to keep the
		// result deterministic rather than undefined.
		return pts[0].Deg, true
	}
	lat := math.Asin(z / norm)
	lon := math.Atan2(y, x)
	return LatLon{Lat: lat * 180 / math.Pi, Lon: lon * 180 / math.Pi}, true
}

// SignedDistanceCached is SignedDistance from a precomputed center to a
// precomputed point; bit-identical to SignedDistance(center.Deg, p.Deg).
func SignedDistanceCached(center, p CachedPoint) float64 {
	d := HaversineCached(center, p)
	dLon := p.Deg.Lon - center.Deg.Lon
	// Normalize to (-180, 180] so "east" means the short way around.
	for dLon > 180 {
		dLon -= 360
	}
	for dLon <= -180 {
		dLon += 360
	}
	switch {
	case dLon > 0:
		return d
	case dLon < 0:
		return -d
	case p.Deg.Lat >= center.Deg.Lat:
		return d
	default:
		return -d
	}
}

// DispersionCached is Dispersion over precomputed points; bit-identical to
// Dispersion over the same points in degrees. The center's trigonometry is
// computed once instead of once per point.
func DispersionCached(pts []CachedPoint) (float64, bool) {
	center, ok := CenterCached(pts)
	if !ok {
		return 0, false
	}
	cc := NewCachedPoint(center)
	var sum float64
	for _, p := range pts {
		sum += SignedDistanceCached(cc, p)
	}
	return math.Abs(sum), true
}

// WeightedCenterCached is WeightedCenter over precomputed points;
// bit-identical to WeightedCenter(a.Deg, b.Deg, wa, wb). The generator's
// cluster-selection loop evaluates every cluster against a fixed anchor,
// so caching both endpoints' trig halves the loop's math.
func WeightedCenterCached(a, b CachedPoint, wa, wb float64) (LatLon, bool) {
	total := wa + wb
	if total <= 0 {
		return LatLon{}, false
	}
	x := (wa*a.CosLat*math.Cos(a.LonRad) + wb*b.CosLat*math.Cos(b.LonRad)) / total
	y := (wa*a.CosLat*math.Sin(a.LonRad) + wb*b.CosLat*math.Sin(b.LonRad)) / total
	z := (wa*math.Sin(a.LatRad) + wb*math.Sin(b.LatRad)) / total
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-12 {
		return a.Deg, true // antipodal cancellation; stay deterministic
	}
	lat := math.Asin(z / norm)
	lon := math.Atan2(y, x)
	return LatLon{Lat: lat * 180 / math.Pi, Lon: lon * 180 / math.Pi}, true
}

// SignedDistanceTo is SignedDistance from an uncached center (typically a
// freshly computed centroid) to a precomputed point; bit-identical to
// SignedDistance(center, p.Deg).
func SignedDistanceTo(center LatLon, p CachedPoint) float64 {
	lat1, lon1 := degToRad(center.Lat), degToRad(center.Lon)
	dLat := p.LatRad - lat1
	dLon := p.LonRad - lon1
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*p.CosLat*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	d := 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
	dLonDeg := p.Deg.Lon - center.Lon
	for dLonDeg > 180 {
		dLonDeg -= 360
	}
	for dLonDeg <= -180 {
		dLonDeg += 360
	}
	switch {
	case dLonDeg > 0:
		return d
	case dLonDeg < 0:
		return -d
	case p.Deg.Lat >= center.Lat:
		return d
	default:
		return -d
	}
}
