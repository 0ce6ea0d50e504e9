package core

import "math"

// BaselineDurations generates the reference single-ISP alarm workload the
// paper compares against (Mao et al. [24]: 31,612 alarms over four weeks,
// 80% shorter than 1.25 hours). It is a deterministic synthetic series
// whose CDF reproduces that comparison point, letting the Fig 7 discussion
// ("attacks are becoming more persistent") be regenerated.
func BaselineDurations() []float64 {
	const n = 31612 // one value per alarm
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
