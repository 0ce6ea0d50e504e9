// Package stats seeds floateq violations inside a scoped package path.
package stats

import "math"

const eps = 1e-9

func bad(a, b float64) bool {
	return a == b // want `float == comparison`
}

func badNeq(a, b float64) bool {
	return a != b // want `float != comparison`
}

// The NaN idiom is flagged too: math.IsNaN says what it means.
func nanIdiom(x float64) bool {
	return x != x // want `float != comparison`
}

func zeroSentinel(a float64) bool {
	return a == 0 // want `float == comparison`
}

func f32(a, b float32) bool {
	return a == b // want `float == comparison`
}

func good(a, b float64) bool {
	return math.Abs(a-b) <= eps
}

func ints(a, b int) bool { return a == b }

func constFold() bool {
	return 1.5 == 1.5
}

func isNaN(x float64) bool {
	return math.IsNaN(x)
}

func allowed(a float64) bool {
	return a == 0 //botvet:ignore floateq fixture exercises the ignore directive
}
