package geo

import "math"

// Valid reports whether the point lies in the legal coordinate ranges.
func (p LatLon) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// WeightedCenter returns the spherical centroid of two points with the
// given non-negative weights: the two-point analogue of Center, and the
// reference WeightedSignedDistances is held to bit for bit.
func WeightedCenter(a, b LatLon, wa, wb float64) (LatLon, bool) {
	total := wa + wb
	if total <= 0 {
		return LatLon{}, false
	}
	latA, lonA := degToRad(a.Lat), degToRad(a.Lon)
	latB, lonB := degToRad(b.Lat), degToRad(b.Lon)
	x := (wa*math.Cos(latA)*math.Cos(lonA) + wb*math.Cos(latB)*math.Cos(lonB)) / total
	y := (wa*math.Cos(latA)*math.Sin(lonA) + wb*math.Cos(latB)*math.Sin(lonB)) / total
	z := (wa*math.Sin(latA) + wb*math.Sin(latB)) / total
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-12 {
		return a, true // antipodal cancellation; stay deterministic
	}
	lat := math.Asin(z / norm)
	lon := math.Atan2(y, x)
	return LatLon{Lat: lat * 180 / math.Pi, Lon: lon * 180 / math.Pi}, true
}
