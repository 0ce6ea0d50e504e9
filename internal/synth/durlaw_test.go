package synth

import (
	"math"
	"testing"

	"botscope/internal/botnet"
	"botscope/internal/dataset"
)

// durationNumbers are §III-C's four summary numbers of the duration law.
type durationNumbers struct {
	P80, Mean, Std, Under4h float64
}

// durationLawNumbers computes a duration law's §III-C numbers without
// generating anything. The law is an IntervalModel as botnet draws it, with
// every mode's median positive: a weighted mixture of lognormal modes,
// each resampled above MaxSec (the same as truncating it there) and
// clamped below at MinSec. The moments come from composite Simpson
// quadrature over each mode's standard-normal variable, P80 from
// bisecting the closed-form CDF on a log scale.
func durationLawNumbers(m botnet.IntervalModel) durationNumbers {
	phi := func(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }
	var total float64
	for _, md := range m.Modes {
		total += md.Weight
	}
	// zOf maps seconds to a mode's standard-normal variable.
	zOf := func(md botnet.IntervalMode, sec float64) float64 {
		return (math.Log(sec) - math.Log(md.MedianSec)) / md.Sigma
	}
	cdf := func(sec float64) float64 { // for MinSec <= sec <= MaxSec
		var f float64
		for _, md := range m.Modes {
			f += md.Weight / total * phi(zOf(md, sec)) / phi(zOf(md, m.MaxSec))
		}
		return f
	}
	// moment returns E[X^k] of the whole law.
	moment := func(k float64) float64 {
		var e float64
		for _, md := range m.Modes {
			mu, hi := math.Log(md.MedianSec), zOf(md, m.MaxSec)
			lo, clamped := -12.0, 0.0
			if m.MinSec > 0 {
				lo = zOf(md, m.MinSec)
				clamped = phi(lo) * math.Pow(m.MinSec, k)
			}
			f := func(z float64) float64 { return math.Exp(k*(mu+md.Sigma*z)-z*z/2) / math.Sqrt(2*math.Pi) }
			const n = 4096 // even
			h := (hi - lo) / n
			sum := f(lo) + f(hi)
			for i := 1; i < n; i++ {
				sum += float64(2+2*(i%2)) * f(lo+float64(i)*h)
			}
			e += md.Weight / total * (clamped + sum*h/3) / phi(hi)
		}
		return e
	}
	lo, hi := math.Log(max(m.MinSec, 1e-3)), math.Log(m.MaxSec)
	for range 100 {
		if mid := (lo + hi) / 2; cdf(math.Exp(mid)) < 0.8 {
			lo = mid
		} else {
			hi = mid
		}
	}
	mean := moment(1)
	return durationNumbers{
		P80:     math.Exp(hi),
		Mean:    mean,
		Std:     math.Sqrt(moment(2) - mean*mean),
		Under4h: cdf(4 * 3600),
	}
}

// TestDurationLawNumbers holds today's duration law — every family's but
// Pandora's, whose median is 2,200 s — to the "this law" column of
// ROADMAP item 12: P80 8.5k s, mean 8.3k s, std 21.2k s, 86.9 % under
// 4 h, each within 2 %. The refit item 12 asks for changes the law and
// these expectations, not the helper.
func TestDurationLawNumbers(t *testing.T) {
	var law botnet.IntervalModel
	for _, p := range Profiles(1) {
		if p.Family == dataset.Dirtjumper {
			// drawDuration clamps below 1 s.
			law = botnet.IntervalModel{
				Modes:  []botnet.IntervalMode{{Weight: 1, MedianSec: p.DurationMedianSec, Sigma: p.DurationSigma}},
				MinSec: 1,
				MaxSec: p.DurationMaxSec,
			}
		}
	}
	got := durationLawNumbers(law)
	t.Logf("law numbers: %+v", got)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"P80", got.P80, 8500},
		{"mean", got.Mean, 8300},
		{"std", got.Std, 21200},
		{"share under 4 h", got.Under4h, 0.869},
	} {
		if math.Abs(c.got-c.want) > 0.02*c.want {
			t.Errorf("%s = %.4g, want %.4g within 2 %%", c.name, c.got, c.want)
		}
	}
}
