// Package botnet is the simulation substrate of botscope: it models botnet
// families, their generations, bot populations, and campaign scheduling,
// and emits the three workload schemas the paper's monitoring service
// produced. The calibration of each family's behaviour lives in
// internal/synth; this package supplies the mechanics.
package botnet

import (
	"math"
	"math/rand"
)

// LogNormal samples a lognormal value with the given median and log-space
// sigma, optionally truncated to max (ignored when max <= 0). Attack
// durations and magnitudes follow this law: the paper reports median 1,766 s
// against mean 10,308 s — the classic heavy-right-tail signature.
func LogNormal(rng *rand.Rand, median, sigma, max float64) float64 {
	mu := math.Log(median)
	for i := 0; i < 64; i++ {
		v := math.Exp(mu + sigma*rng.NormFloat64())
		if max <= 0 || v <= max {
			return v
		}
	}
	return max
}

// IntervalMode is one component of the inter-attack interval mixture.
type IntervalMode struct {
	// Weight is the relative probability of this mode.
	Weight float64
	// MedianSec is the mode's central interval; 0 means an exactly
	// simultaneous launch.
	MedianSec float64
	// Sigma is the lognormal spread (ignored for the simultaneous mode).
	Sigma float64
}

// IntervalModel is the mixture distribution of gaps between consecutive
// attacks by one family. Figure 4 of the paper shows three shared modes
// (6-7 min, 20-40 min, 2-3 h) on top of a simultaneous spike and a heavy
// tail; the mixture reproduces exactly that shape.
type IntervalModel struct {
	Modes []IntervalMode
	// MinSec clamps every non-simultaneous draw from below. Aldibot and
	// Optima launch no attacks within 60 s of each other (Fig 5) — their
	// profiles set this to 60.
	MinSec float64
	// MaxSec clamps the tail (the paper's longest observed gap is 59 days).
	MaxSec float64
}

// Sample draws one interval in seconds.
func (m IntervalModel) Sample(rng *rand.Rand) float64 {
	var total float64
	for _, mode := range m.Modes {
		total += mode.Weight
	}
	if total <= 0 {
		return m.MinSec
	}
	u := rng.Float64() * total
	var acc float64
	mode := m.Modes[len(m.Modes)-1]
	for _, cand := range m.Modes {
		acc += cand.Weight
		if u < acc {
			mode = cand
			break
		}
	}
	if mode.MedianSec == 0 {
		return 0
	}
	v := LogNormal(rng, mode.MedianSec, mode.Sigma, m.MaxSec)
	if v < m.MinSec {
		v = m.MinSec
	}
	return v
}

// WeightedChoice picks an index of weights proportionally. It returns -1
// for an empty or all-zero weight vector.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	u := rng.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	// Round-off fell through; return the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}

// ZipfWeights returns n weights following w_i = 1/(i+1)^s, the concentration
// law used for repeat-victim selection: a few targets soak up most attacks,
// matching the paper's organization-level hotspots.
func ZipfWeights(n int, s float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / math.Pow(float64(i+1), s)
	}
	return out
}
