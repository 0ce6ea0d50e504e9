package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestSum(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{42}, want: 42},
		{name: "mixed signs", give: []float64{1, -1, 2, -2, 5}, want: 5},
		{name: "kahan stability", give: []float64{1e16, 1, -1e16}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sum(tt.give); got != tt.want {
				t.Errorf("Sum(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty is NaN", give: nil, want: math.NaN()},
		{name: "constant", give: []float64{3, 3, 3}, want: 3},
		{name: "simple", give: []float64{1, 2, 3, 4}, want: 2.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Known: population variance 4, sample variance 32/7.
	if got := PopVariance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("PopVariance = %v, want 4", got)
	}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := Variance([]float64{1}); !math.IsNaN(got) {
		t.Errorf("Variance of singleton = %v, want NaN", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		name string
		q    float64
		want float64
	}{
		{name: "min", q: 0, want: 1},
		{name: "max", q: 1, want: 5},
		{name: "median", q: 0.5, want: 3},
		{name: "interpolated", q: 0.25, want: 2},
		{name: "p80", q: 0.8, want: 4.2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Quantile(xs, tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
			}
		})
	}
	if got := Quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("Quantile of empty = %v, want NaN", got)
	}
	if got := Quantile(xs, 1.5); !math.IsNaN(got) {
		t.Errorf("Quantile(1.5) = %v, want NaN", got)
	}
}

func TestQuantileDoesNotMutateInput(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	Quantile(xs, 0.5)
	want := []float64{5, 1, 4, 2, 3}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("Quantile mutated input: %v", xs)
		}
	}
}

func TestMedianEven(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4}); !almostEqual(got, 2.5, 1e-12) {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if got := Min(nil); !math.IsNaN(got) {
		t.Errorf("Min(nil) = %v, want NaN", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	s := Summarize(xs)
	if s.N != 5 {
		t.Errorf("N = %d, want 5", s.N)
	}
	if !almostEqual(s.Mean, 30, 1e-12) || !almostEqual(s.Median, 30, 1e-12) {
		t.Errorf("Mean/Median = %v/%v, want 30/30", s.Mean, s.Median)
	}
	if s.Min != 10 || s.Max != 50 {
		t.Errorf("Min/Max = %v/%v, want 10/50", s.Min, s.Max)
	}
	if !almostEqual(s.P80, 42, 1e-12) {
		t.Errorf("P80 = %v, want 42", s.P80)
	}

	empty := Summarize(nil)
	if empty.N != 0 || !math.IsNaN(empty.Mean) {
		t.Errorf("empty Summarize = %+v, want N=0 NaN stats", empty)
	}
}

func TestFractionAtMost(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := FractionAtMost(xs, 3); !almostEqual(got, 0.6, 1e-12) {
		t.Errorf("FractionAtMost(3) = %v, want 0.6", got)
	}
	if got := FractionAtMost(xs, 0); got != 0 {
		t.Errorf("FractionAtMost(0) = %v, want 0", got)
	}
	if got := FractionAtMost(nil, 1); !math.IsNaN(got) {
		t.Errorf("FractionAtMost(nil) = %v, want NaN", got)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		o.Add(xs[i])
	}
	if o.N() != len(xs) {
		t.Fatalf("N = %d, want %d", o.N(), len(xs))
	}
	if !almostEqual(o.Mean(), Mean(xs), 1e-9) {
		t.Errorf("online mean %v != batch mean %v", o.Mean(), Mean(xs))
	}
	if !almostEqual(o.Variance(), Variance(xs), 1e-9) {
		t.Errorf("online variance %v != batch variance %v", o.Variance(), Variance(xs))
	}
	if o.Min() != Min(xs) || o.Max() != Max(xs) {
		t.Errorf("online min/max %v/%v != batch %v/%v", o.Min(), o.Max(), Min(xs), Max(xs))
	}
}

func TestOnlineMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, whole Online
	var xs []float64
	for i := 0; i < 500; i++ {
		x := rng.ExpFloat64()
		xs = append(xs, x)
		if i < 200 {
			a.Add(x)
		} else {
			b.Add(x)
		}
		whole.Add(x)
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged mean %v != whole mean %v", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance %v != whole variance %v", a.Variance(), whole.Variance())
	}
}

func TestOnlineMergeEmpty(t *testing.T) {
	var a, b Online
	a.Add(1)
	a.Add(2)
	saved := a
	a.Merge(b) // merging empty is a no-op
	if a != saved {
		t.Errorf("merge with empty changed accumulator: %+v -> %+v", saved, a)
	}
	b.Merge(a) // merging into empty copies
	if b.N() != 2 || !almostEqual(b.Mean(), 1.5, 1e-12) {
		t.Errorf("merge into empty = %+v, want N=2 mean=1.5", b)
	}
}

// Property: for any sample, Min <= Quantile(q) <= Max for q in [0,1], and
// quantiles are monotone in q.
func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(q1, 1))
		qb := math.Abs(math.Mod(q2, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		return va >= Min(xs) && vb <= Max(xs) && va <= vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Online accumulation matches batch statistics for any sample.
func TestOnlineProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		var o Online
		for _, x := range xs {
			o.Add(x)
		}
		if len(xs) == 0 {
			return o.N() == 0
		}
		tol := 1e-6 * (1 + math.Abs(Mean(xs)))
		if !almostEqual(o.Mean(), Mean(xs), tol) {
			return false
		}
		if len(xs) >= 2 {
			vtol := 1e-6 * (1 + Variance(xs))
			return almostEqual(o.Variance(), Variance(xs), vtol)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
