package stats

import (
	"fmt"
	"math"
)

// KSResult is the outcome of a two-sample Kolmogorov-Smirnov test.
type KSResult struct {
	// Statistic is the maximum distance between the two empirical CDFs.
	Statistic float64
	// PValue is the asymptotic two-sided p-value (Kolmogorov distribution).
	PValue float64
	// N1, N2 are the sample sizes.
	N1, N2 int
}

// KolmogorovSmirnov runs the two-sample KS test on two samples' ECDFs,
// which hold them sorted. botscope uses it to compare generated
// interval/duration distributions against reference shapes. It returns an
// error when either sample is empty.
func KolmogorovSmirnov(a, b *ECDF) (KSResult, error) {
	sa, sb := a.sorted, b.sorted
	if len(sa) == 0 || len(sb) == 0 {
		return KSResult{}, fmt.Errorf("stats: KS test needs non-empty samples, got %d and %d", len(sa), len(sb))
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

	ne := n1 * n2 / (n1 + n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{Statistic: d, PValue: ksPValue(lambda), N1: len(sa), N2: len(sb)}, nil
}

// ksPValue evaluates the Kolmogorov distribution's survival function
// Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
func ksPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	var (
		sum  float64
		sign = 1.0
	)
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
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
