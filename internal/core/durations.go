package core

import (
	"fmt"
	"math"

	"botscope/internal/dataset"
	"botscope/internal/stats"
)

// Durations returns every attack duration in seconds, in start-time order
// (the Fig 6 series).
func Durations(s *dataset.Store) []float64 {
	n := s.AttackRows()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.AttackAt(i).Duration().Seconds())
	}
	return out
}

// DurationStats carries the §III-C headline numbers: the paper reports
// mean 10,308 s, median 1,766 s, std 18,475 s, and 80% under 13,882 s
// (about four hours).
type DurationStats struct {
	stats.Summary
	// FracUnder4h is the fraction of attacks shorter than four hours.
	FracUnder4h float64
	// FracUnder60s is the fraction shorter than a minute (the paper keeps
	// this under 10%, which justifies its 60 s attack-splitting rule).
	FracUnder60s float64
}

// AnalyzeDurations summarizes a duration series; the error is non-nil for
// an empty series.
func AnalyzeDurations(durs []float64) (DurationStats, error) {
	if len(durs) == 0 {
		return DurationStats{}, fmt.Errorf("core: no durations to analyze")
	}
	return DurationStats{
		Summary:      stats.Summarize(durs),
		FracUnder4h:  stats.FractionBelow(durs, 4*3600),
		FracUnder60s: stats.FractionBelow(durs, 60),
	}, nil
}

// DurationCDF builds the Fig 7 empirical CDF.
func DurationCDF(durs []float64) *stats.ECDF {
	return stats.NewECDF(durs)
}

// BaselineDurations generates the reference single-ISP alarm workload the
// paper compares against (Mao et al. [24]: 31,612 alarms over four weeks,
// 80% shorter than 1.25 hours). It is a deterministic synthetic series
// whose CDF reproduces that comparison point, letting the Fig 7 discussion
// ("attacks are becoming more persistent") be regenerated.
func BaselineDurations(n int) []float64 {
	if n <= 0 {
		n = 31612
	}
	out := make([]float64, n)
	// Deterministic quantile sampling of a lognormal calibrated so the
	// 80th percentile sits at 1.25 h = 4,500 s: median 900 s, sigma ~1.9
	// gives q80 = 900 * exp(1.9 * 0.8416) = ~4,450 s.
	const (
		median = 900.0
		sigma  = 1.912
	)
	for i := range out {
		q := (float64(i) + 0.5) / float64(n)
		out[i] = median * expNormQuantile(sigma, q)
	}
	return out
}

// expNormQuantile returns exp(sigma * Phi^-1(q)).
func expNormQuantile(sigma, q float64) float64 {
	return math.Exp(sigma * normQuantile(q))
}

// normQuantile approximates the standard normal inverse CDF (Acklam's
// algorithm, max relative error ~1e-9 over (0,1)).
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		if p <= 0 {
			return -8
		}
		return 8
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
