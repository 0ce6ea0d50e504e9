package stats

import (
	"fmt"
	"math"
)

// KolmogorovSmirnov returns the two-sample Kolmogorov-Smirnov statistic
// D, the largest distance between two samples' ECDFs, which hold them
// sorted. botscope uses it to compare generated interval/duration
// distributions against reference shapes. It returns an error when either
// sample is empty.
func KolmogorovSmirnov(a, b *ECDF) (float64, error) {
	sa, sb := a.sorted, b.sorted
	if len(sa) == 0 || len(sb) == 0 {
		return 0, fmt.Errorf("stats: KS test needs non-empty samples, got %d and %d", len(sa), len(sb))
	}

	var (
		d      float64
		i, j   int
		n1, n2 = float64(len(sa)), float64(len(sb))
	)
	for i < len(sa) && j < len(sb) {
		x1, x2 := sa[i], sb[j]
		switch {
		case x1 <= x2:
			i++
		default:
			j++
		}
		if x1 == x2 { //botvet:ignore floateq ties are exact duplicates of sampled values
			// Advance both past ties to evaluate the CDFs after the tie.
			for i < len(sa) && sa[i] == x1 { //botvet:ignore floateq exact-tie scan
				i++
			}
			for j < len(sb) && sb[j] == x1 { //botvet:ignore floateq exact-tie scan
				j++
			}
		}
		diff := math.Abs(float64(i)/n1 - float64(j)/n2)
		if diff > d {
			d = diff
		}
	}
	return d, nil
}

// WassersteinDistance returns the 1-Wasserstein (earth mover's) distance
// between two empirical distributions — a magnitude-aware complement to KS
// used in calibration reports.
func WassersteinDistance(a, b *ECDF) (float64, error) {
	sa, sb := a.sorted, b.sorted
	if len(sa) == 0 || len(sb) == 0 {
		return 0, fmt.Errorf("stats: wasserstein needs non-empty samples, got %d and %d", len(sa), len(sb))
	}

	// Integrate |F_a(x) - F_b(x)| dx over the merged support.
	var (
		dist   float64
		i, j   int
		prev   float64
		n1, n2 = float64(len(sa)), float64(len(sb))
		first  = true
	)
	for i < len(sa) || j < len(sb) {
		var x float64
		switch {
		case i >= len(sa):
			x = sb[j]
		case j >= len(sb):
			x = sa[i]
		case sa[i] <= sb[j]:
			x = sa[i]
		default:
			x = sb[j]
		}
		if !first {
			fa := float64(i) / n1
			fb := float64(j) / n2
			dist += math.Abs(fa-fb) * (x - prev)
		}
		first = false
		prev = x
		for i < len(sa) && sa[i] == x { //botvet:ignore floateq exact-tie scan
			i++
		}
		for j < len(sb) && sb[j] == x { //botvet:ignore floateq exact-tie scan
			j++
		}
	}
	return dist, nil
}
