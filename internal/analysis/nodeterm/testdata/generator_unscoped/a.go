package a

import (
	"math/rand"
	"time"
)

// Outside the deterministic packages nodeterm stays silent, the
// generator-only map-range draw rule included.
func unscopedDraws(n int) int64 {
	x := rand.Intn(n)
	now := time.Now()
	return int64(x) + now.Unix()
}

func unscopedMapDraw(rng *rand.Rand, weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w * rng.Float64()
	}
	return total
}
