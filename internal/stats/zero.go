package stats

// IsZero reports whether x is exactly +0 or -0. It is the sanctioned,
// greppable form of the exact zero test — division guards and
// zero-sentinel counts mean precisely zero, not "small".
func IsZero(x float64) bool {
	return x == 0 //botvet:ignore floateq exact zero is the intended semantics here
}
