package stats

import (
	"fmt"
	"math"
)

// ChiSquareResult is the outcome of a chi-square goodness-of-fit test.
type ChiSquareResult struct {
	Statistic float64
	// DegreesOfFreedom is bins - 1.
	DegreesOfFreedom int
	// PValue is the upper-tail probability of the chi-square distribution.
	PValue float64
}

// ChiSquareUniform tests observed bin counts against a uniform expectation.
// botscope uses it for the paper's §III-A observation that daily/hourly
// attack counts show none of the diurnal patterns of user-driven traffic —
// i.e. the *rejection* of uniformity is weak compared to genuinely diurnal
// series. It returns an error for fewer than two bins or zero totals.
func ChiSquareUniform(counts []int) (ChiSquareResult, error) {
	if len(counts) < 2 {
		return ChiSquareResult{}, fmt.Errorf("stats: chi-square needs >= 2 bins, got %d", len(counts))
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return ChiSquareResult{}, fmt.Errorf("stats: negative count %d", c)
		}
		total += c
	}
	if total == 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: chi-square on empty counts")
	}
	expected := float64(total) / float64(len(counts))
	var stat float64
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	dof := len(counts) - 1
	return ChiSquareResult{
		Statistic:        stat,
		DegreesOfFreedom: dof,
		PValue:           chiSquareSurvival(stat, float64(dof)),
	}, nil
}

// chiSquareSurvival returns P(X >= x) for a chi-square distribution with
// k degrees of freedom, via the regularized upper incomplete gamma
// function Q(k/2, x/2).
func chiSquareSurvival(x, k float64) float64 {
	if x <= 0 {
		return 1
	}
	return upperIncompleteGammaRegularized(k/2, x/2)
}

// upperIncompleteGammaRegularized computes Q(a, x) = Gamma(a, x)/Gamma(a)
// with the series expansion for x < a+1 and the continued fraction
// otherwise (Numerical Recipes style).
func upperIncompleteGammaRegularized(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case IsZero(x):
		return 1
	case x < a+1:
		return 1 - lowerGammaSeries(a, x)
	default:
		return upperGammaContinuedFraction(a, x)
	}
}

// lowerGammaSeries computes P(a, x) by series expansion.
func lowerGammaSeries(a, x float64) float64 {
	lgamma, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-14 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lgamma)
}

// upperGammaContinuedFraction computes Q(a, x) by Lentz's continued
// fraction.
func upperGammaContinuedFraction(a, x float64) float64 {
	const (
		tiny = 1e-300
		eps  = 1e-14
	)
	lgamma, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i < 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lgamma) * h
}

// UniformityScore normalizes the chi-square statistic to Cramer's V-style
// effect size in [0, 1]: 0 for perfectly uniform counts, approaching 1 as
// mass concentrates. Unlike the p-value it is sample-size independent, so
// "diurnal or not" comparisons across workload scales stay meaningful.
func UniformityScore(counts []int) (float64, error) {
	res, err := ChiSquareUniform(counts)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 || len(counts) < 2 {
		return 0, nil
	}
	maxStat := float64(total) * float64(len(counts)-1)
	return math.Sqrt(res.Statistic / maxStat), nil
}
