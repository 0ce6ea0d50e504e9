package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the type-7 quantile the batch stats package uses.
func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func TestQuantileSketchLognormal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sk := NewQuantileSketch(0)
	xs := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Lognormal roughly matching attack durations (median ~1800 s).
		x := 1800 * math.Exp(1.4*rng.NormFloat64())
		sk.Add(x)
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.8, 0.95, 0.99} {
		want := exactQuantile(xs, q)
		got := sk.Quantile(q)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q=%.2f: sketch %v, exact %v (rel err %.4f)", q, got, want, math.Abs(got-want)/want)
		}
	}
}

func TestQuantileSketchZeroMass(t *testing.T) {
	sk := NewQuantileSketch(0)
	// 60% zeros (simultaneous launches), 40% positive gaps.
	for i := 0; i < 600; i++ {
		sk.Add(0)
	}
	for i := 0; i < 400; i++ {
		sk.Add(100 + float64(i))
	}
	if got := sk.Quantile(0.5); got != 0 {
		t.Errorf("median with 60%% zero mass = %v, want 0", got)
	}
	if got := sk.Quantile(0.95); got < 100 {
		t.Errorf("p95 = %v, want >= 100", got)
	}
	if sk.Min() != 0 {
		t.Errorf("min = %v, want 0", sk.Min())
	}
}

func TestQuantileSketchEdgeCases(t *testing.T) {
	sk := NewQuantileSketch(0)
	if !math.IsNaN(sk.Quantile(0.5)) {
		t.Error("empty sketch quantile should be NaN")
	}
	sk.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := sk.Quantile(q); got < 42*(1-sk.Alpha()) || got > 42*(1+sk.Alpha()) {
			t.Errorf("single-value quantile(%v) = %v, want ~42", q, got)
		}
	}
	if !math.IsNaN(sk.Quantile(-0.1)) || !math.IsNaN(sk.Quantile(1.1)) {
		t.Error("out-of-range q should be NaN")
	}
	sk.Add(-5) // clamped to zero
	if sk.Min() != 0 {
		t.Errorf("negative input min = %v, want clamp to 0", sk.Min())
	}
}

func TestQuantileSketchMemoryBound(t *testing.T) {
	sk := newQuantileSketch(0, 64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100000; i++ {
		sk.Add(math.Exp(rng.Float64()*20 - 5)) // values across ~11 decades
	}
	if sk.Bins() > 64 {
		t.Errorf("bins = %d, want <= 64 after collapsing", sk.Bins())
	}
	if sk.N() != 100000 {
		t.Errorf("n = %d, want 100000", sk.N())
	}
	// High quantiles stay accurate: collapsing only merges the low end.
	if got := sk.Quantile(0.99); got <= 0 {
		t.Errorf("p99 = %v, want > 0", got)
	}
}

// refSketch is the map-and-sort sketch the dense array replaced, kept as
// the reference the differential test compares against: same bucket keys,
// same collapse of the two lowest buckets, quantiles by sorting the keys.
type refSketch struct {
	gamma, lnGamma float64
	maxBins        int
	zero, n        uint64
	counts         map[int]uint64
	min, max       float64
}

func newRefSketch(alpha float64, maxBins int) *refSketch {
	gamma := (1 + alpha) / (1 - alpha)
	return &refSketch{gamma: gamma, lnGamma: math.Log(gamma), maxBins: maxBins, counts: make(map[int]uint64)}
}

func (s *refSketch) add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if x < 0 {
		x = 0
	}
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		s.min, s.max = math.Min(s.min, x), math.Max(s.max, x)
	}
	s.n++
	if x <= minIndexable {
		s.zero++
		return
	}
	s.counts[int(math.Ceil(math.Log(x)/s.lnGamma))]++
	if len(s.counts) > s.maxBins {
		keys := s.keys()
		s.counts[keys[1]] += s.counts[keys[0]]
		delete(s.counts, keys[0])
	}
}

func (s *refSketch) keys() []int {
	keys := make([]int, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func (s *refSketch) quantile(q float64) float64 {
	if s.n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := uint64(math.Round(q * float64(s.n-1)))
	if rank < s.zero {
		return 0
	}
	cum := s.zero
	for _, k := range s.keys() {
		cum += s.counts[k]
		if rank < cum {
			return clamp(2*math.Pow(s.gamma, float64(k))/(s.gamma+1), s.min, s.max)
		}
	}
	return s.max
}

// sameBits is bit equality, so NaN matches NaN and -0 does not match 0.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestQuantileSketchMatchesReference feeds the dense sketch and the
// map-and-sort reference the same streams and requires every estimate,
// bound and count to agree bit for bit after every few values.
func TestQuantileSketchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	gen := func(n int, f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	streams := []struct {
		name    string
		maxBins int
		xs      []float64
	}{
		{"lognormal durations", defaultMaxBins, gen(20000, func(int) float64 { return 1800 * math.Exp(1.4*rng.NormFloat64()) })},
		{"pareto gaps", defaultMaxBins, gen(20000, func(int) float64 { return 0.5 / math.Pow(1-rng.Float64(), 1/1.2) })},
		{"all zeros", defaultMaxBins, gen(500, func(int) float64 { return 0 })},
		{"descending", defaultMaxBins, gen(3000, func(i int) float64 { return 1e6 * math.Pow(0.99, float64(i)) })},
		{"wide, collapsing", 48, gen(20000, func(int) float64 { return math.Exp(rng.Float64()*40 - 12) })},
		{"descending, collapsing", 16, gen(2000, func(i int) float64 { return 1e9 * math.Pow(0.97, float64(i)) })},
		{"NaN, negative and tiny", 32, gen(5000, func(i int) float64 {
			switch i % 5 {
			case 0:
				return math.NaN()
			case 1:
				return -rng.Float64() * 100
			case 2:
				return rng.Float64() * 2e-6
			}
			return math.Exp(rng.NormFloat64() * 6)
		})},
	}
	qs := []float64{0, 0.5, 0.8, 0.95, 1, -0.1, 1.1, math.NaN()}

	for _, st := range streams {
		t.Run(st.name, func(t *testing.T) {
			sk := newQuantileSketch(0, st.maxBins)
			ref := newRefSketch(DefaultAlpha, st.maxBins)
			check := func(i int) {
				t.Helper()
				if sk.N() != int(ref.n) || sk.Bins() != len(ref.counts) {
					t.Fatalf("after %d values: N %d Bins %d, reference %d %d", i, sk.N(), sk.Bins(), ref.n, len(ref.counts))
				}
				if ref.n > 0 && (!sameBits(sk.Min(), ref.min) || !sameBits(sk.Max(), ref.max)) {
					t.Fatalf("after %d values: min %v max %v, reference %v %v", i, sk.Min(), sk.Max(), ref.min, ref.max)
				}
				for _, q := range qs {
					if got, want := sk.Quantile(q), ref.quantile(q); !sameBits(got, want) {
						t.Fatalf("after %d values: Quantile(%v) = %v, reference %v", i, q, got, want)
					}
				}
			}
			check(0)
			for i, x := range st.xs {
				sk.Add(x)
				ref.add(x)
				if i%97 == 0 {
					check(i + 1)
				}
			}
			check(len(st.xs))
			if sk.Bins() > st.maxBins {
				t.Errorf("%d live buckets, cap %d", sk.Bins(), st.maxBins)
			}
		})
	}
}

// TestQuantileSketchAllocations pins the point of the dense layout: a
// quantile read never allocates, and neither does an Add whose bucket the
// array already spans.
func TestQuantileSketchAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = 1800 * math.Exp(1.4*rng.NormFloat64())
	}
	sk := NewQuantileSketch(0)
	for _, x := range xs {
		sk.Add(x)
	}
	if n := testing.AllocsPerRun(100, func() { sink = sk.Quantile(0.5) + sk.Quantile(0.95) }); n != 0 {
		t.Errorf("Quantile allocates %v times a call", n)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() { sk.Add(xs[i%len(xs)]); i++ }); n != 0 {
		t.Errorf("Add on a warmed sketch allocates %v times a call", n)
	}
}

var sink float64
