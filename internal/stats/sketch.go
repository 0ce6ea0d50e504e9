package stats

import "math"

// QuantileSketch is a bounded-memory streaming quantile estimator over
// non-negative values, in the DDSketch family: values are counted in
// logarithmically spaced buckets chosen so that every estimate carries a
// guaranteed relative error of at most Alpha.
//
// Buckets live in key order in one dense array: counts[i] is the bucket
// with key base+i, so Add is an array increment and Quantile an ordered
// walk — neither sorts nor allocates. The array spans the lowest to the
// highest key seen (and, after growing downward, as many spare slots
// again): O(log(max/min) / Alpha) slots regardless of stream length. With
// the default Alpha, second-scaled gaps and durations from 1 µs to 260 ks
// span ~2,700 slots (21 KB), and nothing a time.Duration can express
// spans more than ~3,700.
//
// The zero value is not usable; construct with NewQuantileSketch. A sketch
// is not safe for concurrent mutation; Quantile and friends are read-only.
type QuantileSketch struct {
	gamma   float64
	lnGamma float64
	maxBins int

	zero   uint64   // count of values <= minIndexable
	base   int      // key of counts[0]
	counts []uint64 // dense log buckets in key order
	live   int      // non-empty log buckets
	n      uint64
	min    float64
	max    float64
}

// DefaultAlpha is the relative-error guarantee used by the live fold's
// sketches: estimates are within 0.5% of the true sample value, well
// inside the 2% parity tolerance against the batch quantiles.
const DefaultAlpha = 0.005

// defaultMaxBins caps the non-empty log buckets; past it the two lowest
// collapse into one.
const defaultMaxBins = 4096

// minIndexable is the smallest magnitude tracked in log buckets; values at
// or below it (including all zeros, which dominate inter-attack gap series)
// land in a dedicated exact-zero bucket. One microsecond is far below any
// meaningful attack gap or duration.
const minIndexable = 1e-6

// NewQuantileSketch builds a sketch with the given relative-error target
// (0 means DefaultAlpha). Alpha must stay in (0, 1).
func NewQuantileSketch(alpha float64) *QuantileSketch {
	return newQuantileSketch(alpha, defaultMaxBins)
}

func newQuantileSketch(alpha float64, maxBins int) *QuantileSketch {
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if alpha >= 1 {
		alpha = 0.5
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{
		gamma:   gamma,
		lnGamma: math.Log(gamma),
		maxBins: maxBins,
	}
}

// Add folds x into the sketch. Negative values are clamped to zero (the
// live fold only feeds non-negative gap/duration seconds).
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < 0 {
		x = 0
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	if x <= minIndexable {
		s.zero++
		return
	}
	key := int(math.Ceil(math.Log(x) / s.lnGamma))
	if key < s.base || key >= s.base+len(s.counts) {
		s.extend(key)
	}
	i := key - s.base
	if s.counts[i] == 0 {
		s.live++
	}
	s.counts[i]++
	if s.live > s.maxBins {
		s.collapse()
	}
}

// extend grows the array until key is addressable. Upward growth appends;
// downward growth reallocates with as many spare slots below as the array
// already holds, so a descending stream still pays amortized O(1) per Add.
func (s *QuantileSketch) extend(key int) {
	switch {
	case len(s.counts) == 0:
		s.base = key
		s.counts = append(s.counts, 0)
	case key >= s.base:
		s.counts = append(s.counts, make([]uint64, key-s.base+1-len(s.counts))...)
	default:
		pad := max(s.base-key, len(s.counts))
		grown := make([]uint64, pad+len(s.counts))
		copy(grown[pad:], s.counts)
		s.counts = grown
		s.base -= pad
	}
}

// collapse merges the two lowest non-empty buckets, trading accuracy at
// the cheap low end for a hard cap on live buckets (the DDSketch
// collapsing strategy). The emptied slot stays: a later low value reuses
// it instead of regrowing the array.
func (s *QuantileSketch) collapse() {
	lowest, second := -1, -1
	for i, c := range s.counts {
		if c == 0 {
			continue
		}
		if lowest < 0 {
			lowest = i
			continue
		}
		second = i
		break
	}
	if second < 0 {
		return
	}
	s.counts[second] += s.counts[lowest]
	s.counts[lowest] = 0
	s.live--
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of the values added
// so far. It returns NaN for an empty sketch or q outside [0, 1].
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	// Target the order statistic nearest rank q*(n-1), the same anchor the
	// batch type-7 quantile interpolates around.
	rank := uint64(math.Round(q * float64(s.n-1)))
	if rank < s.zero {
		return 0
	}
	cum := s.zero
	for i, c := range s.counts {
		cum += c
		if rank < cum {
			// Mid-bucket estimate: bucket k covers (gamma^(k-1), gamma^k];
			// 2*gamma^k/(gamma+1) is within alpha of every value inside.
			est := 2 * math.Pow(s.gamma, float64(s.base+i)) / (s.gamma + 1)
			return clamp(est, s.min, s.max)
		}
	}
	return s.max
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
