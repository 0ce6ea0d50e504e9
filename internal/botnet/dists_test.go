package botnet

import (
	"math"
	"math/rand"
	"testing"
)

func TestLogNormalMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	below := 0
	for i := 0; i < n; i++ {
		if LogNormal(rng, 1000, 1.5, 0) < 1000 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("fraction below median = %v, want about 0.5", frac)
	}
}

func TestLogNormalTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		if v := LogNormal(rng, 1000, 2.5, 50000); v > 50000 {
			t.Fatalf("truncated draw %v exceeds max", v)
		}
	}
}

func TestIntervalModelZeroShare(t *testing.T) {
	m := IntervalModel{
		Modes: []IntervalMode{
			{Weight: 0.4, MedianSec: 0},
			{Weight: 0.6, MedianSec: 600, Sigma: 0.3},
		},
		MaxSec: 1e6,
	}
	rng := rand.New(rand.NewSource(4))
	zeros := 0
	n := 20000
	for i := 0; i < n; i++ {
		if m.Sample(rng) == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / float64(n)
	if math.Abs(frac-0.4) > 0.02 {
		t.Errorf("zero fraction = %v, want about 0.4", frac)
	}
}

func TestIntervalModelMinClamp(t *testing.T) {
	m := IntervalModel{
		Modes:  []IntervalMode{{Weight: 1, MedianSec: 30, Sigma: 0.5}},
		MinSec: 60,
		MaxSec: 1e6,
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		if v := m.Sample(rng); v < 60 {
			t.Fatalf("sample %v below MinSec", v)
		}
	}
}

func TestIntervalModelEmpty(t *testing.T) {
	m := IntervalModel{MinSec: 42}
	rng := rand.New(rand.NewSource(6))
	if got := m.Sample(rng); got != 42 {
		t.Errorf("empty model sample = %v, want MinSec fallback", got)
	}
}

func TestWeightedChoice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if got := WeightedChoice(rng, nil); got != -1 {
		t.Errorf("empty weights = %d, want -1", got)
	}
	if got := WeightedChoice(rng, []float64{0, 0}); got != -1 {
		t.Errorf("all-zero weights = %d, want -1", got)
	}
	if got := WeightedChoice(rng, []float64{0, 5, 0}); got != 1 {
		t.Errorf("single positive weight = %d, want 1", got)
	}

	counts := make([]int, 3)
	weights := []float64{1, 2, 7}
	n := 30000
	for i := 0; i < n; i++ {
		counts[WeightedChoice(rng, weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("index %d frequency = %v, want about %v", i, got, want)
		}
	}
}

func TestWeightedChoiceSkipsNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		got := WeightedChoice(rng, []float64{-5, 1, -2})
		if got != 1 {
			t.Fatalf("picked index %d with non-positive weight", got)
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(4, 1)
	if len(w) != 4 {
		t.Fatalf("len = %d", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Errorf("weights not decreasing at %d: %v", i, w)
		}
	}
	if math.Abs(w[0]-1) > 1e-12 || math.Abs(w[1]-0.5) > 1e-12 {
		t.Errorf("w = %v, want [1, 0.5, ...]", w)
	}
}
