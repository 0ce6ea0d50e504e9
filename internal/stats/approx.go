package stats

import "math"

// DefaultEpsilon is the tolerance the analysis layers use when comparing
// derived floating-point statistics for equality.
const DefaultEpsilon = 1e-9

// ApproxEqual reports whether a and b agree within eps, using a mixed
// absolute/relative tolerance: |a-b| <= eps catches values near zero, and
// |a-b| <= eps*max(|a|,|b|) scales with magnitude. NaN equals nothing.
// This is the epsilon helper the floateq analyzer points to: direct ==/!=
// on floats is forbidden in the statistics packages.
func ApproxEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //botvet:ignore floateq fast path; also handles equal infinities
		return true
	}
	d := math.Abs(a - b)
	return d <= eps || d <= eps*math.Max(math.Abs(a), math.Abs(b))
}

// IsZero reports whether x is exactly +0 or -0. It is the sanctioned,
// greppable form of the exact zero test — division guards and
// zero-sentinel counts mean precisely zero, not "small".
func IsZero(x float64) bool {
	return x == 0 //botvet:ignore floateq exact zero is the intended semantics here
}
