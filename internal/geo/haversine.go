// Package geo provides the geolocation substrate of botscope: great-circle
// math, a country/city coordinate atlas, a deterministic synthetic GeoIP
// database, and the signed-dispersion metric the paper uses to profile
// attack sources (§IV-A).
//
// The paper relied on a commercial geo-mapping service (Digital Envoy).
// That service is proprietary, so this package substitutes a deterministic
// synthetic mapping from IPv4 addresses to locations, organizations, and
// autonomous systems. All analyses consume only (lat, lon, country, city,
// org, ASN), so the substitution preserves every geospatial statistic.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm = 6371.0

// LatLon is a point on the Earth's surface in decimal degrees.
type LatLon struct {
	Lat float64
	Lon float64
}

// String renders the point as "lat,lon" with 4 decimal places.
func (p LatLon) String() string {
	return fmt.Sprintf("%.4f,%.4f", p.Lat, p.Lon)
}

func degToRad(d float64) float64 { return d * math.Pi / 180 }

// Haversine returns the great-circle distance between a and b in km, using
// the haversine formula the paper cites for its distance computations.
func Haversine(a, b LatLon) float64 {
	lat1, lat2 := degToRad(a.Lat), degToRad(b.Lat)
	return haversine(lat2-lat1, degToRad(b.Lon)-degToRad(a.Lon), math.Cos(lat1), math.Cos(lat2))
}

// haversine is the formula itself, from the latitude and longitude
// differences in radians and both endpoints' cos(lat).
func haversine(dLat, dLon, cosLat1, cosLat2 float64) float64 {
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + cosLat1*cosLat2*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Center returns the geographic center (spherical centroid) of the points,
// computed by averaging 3-D unit vectors. It returns the zero point and
// false when pts is empty.
func Center(pts []LatLon) (LatLon, bool) {
	var c Centroid
	for _, p := range pts {
		lat, lon := degToRad(p.Lat), degToRad(p.Lon)
		c.add(math.Cos(lat)*math.Cos(lon), math.Cos(lat)*math.Sin(lon), math.Sin(lat), p)
	}
	return c.center()
}

// Centroid accumulates Center one point at a time: the unit-vector sums,
// the count, and the first point, which is the center when the vectors
// cancel. The zero value is empty.
type Centroid struct {
	x, y, z float64
	n       int
	first   LatLon
}

func (c *Centroid) add(x, y, z float64, p LatLon) {
	if c.n == 0 {
		c.first = p
	}
	c.x += x
	c.y += y
	c.z += z
	c.n++
}

// center is Center's answer for the points added so far.
func (c *Centroid) center() (LatLon, bool) {
	if c.n == 0 {
		return LatLon{}, false
	}
	n := float64(c.n)
	x, y, z := c.x/n, c.y/n, c.z/n
	norm := math.Sqrt(x*x + y*y + z*z)
	if norm < 1e-12 {
		// Antipodal cancellation; fall back to the first point to keep the
		// result deterministic rather than undefined.
		return c.first, true
	}
	lat := math.Asin(z / norm)
	lon := math.Atan2(y, x)
	return LatLon{Lat: lat * 180 / math.Pi, Lon: lon * 180 / math.Pi}, true
}

// SignedDistance returns the haversine distance from center to p with the
// paper's sign convention: positive for points east (or, on the same
// meridian, north) of the center, negative for west/south. Longitude
// differences are taken the short way around the antimeridian.
func SignedDistance(center, p LatLon) float64 {
	return signed(Haversine(center, p), center, p)
}

// signed gives the distance d from center to p the paper's sign.
func signed(d float64, center, p LatLon) float64 {
	dLon := p.Lon - center.Lon
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
	case p.Lat >= center.Lat:
		return d
	default:
		return -d
	}
}

// Dispersion computes the paper's geolocation-distribution value for a set
// of bot locations: the absolute value of the sum of signed distances from
// the geographic center. Zero means the participating bots are
// geographically symmetric around their center. The boolean is false when
// pts is empty.
func Dispersion(pts []LatLon) (float64, bool) {
	center, ok := Center(pts)
	if !ok {
		return 0, false
	}
	var sum float64
	for _, p := range pts {
		sum += SignedDistance(center, p)
	}
	return math.Abs(sum), true
}

// MeanDistanceToCenter is the ablation alternative to Dispersion: the mean
// unsigned distance from each point to the geographic center. Unlike
// Dispersion it cannot distinguish symmetric from concentrated layouts.
func MeanDistanceToCenter(pts []LatLon) (float64, bool) {
	center, ok := Center(pts)
	if !ok {
		return 0, false
	}
	var sum float64
	for _, p := range pts {
		sum += Haversine(center, p)
	}
	return sum / float64(len(pts)), true
}
