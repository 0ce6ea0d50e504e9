package a

import (
	"math/rand"
	"time"
)

// badGlobalDraws uses the process-wide math/rand stream: every top-level
// draw is shared across families and workers.
func badGlobalDraws(n int) int {
	x := rand.Intn(n)                  // want `call to global rand.Intn in deterministic package`
	y := rand.Float64()                // want `call to global rand.Float64 in deterministic package`
	rand.Shuffle(n, func(i, j int) {}) // want `call to global rand.Shuffle in deterministic package`
	return x + int(y)
}

// badWallClock reads the wall clock for seeds and jitter.
func badWallClock() int64 {
	now := time.Now()    // want `call to time.Now in deterministic package`
	d := time.Since(now) // want `call to time.Since in deterministic package`
	return int64(d)
}

// badMapOrderedDraw consumes the seeded stream in map-iteration order.
func badMapOrderedDraw(rng *rand.Rand, weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w * rng.Float64() // want `draw inside a map range consumes the seeded stream in map-iteration order`
	}
	return total
}

// goodSeededStream draws only from an explicit seeded generator: legal.
func goodSeededStream(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}

// goodSortedIteration draws inside a slice range: deterministic order, legal.
func goodSortedIteration(rng *rand.Rand, keys []string, weights map[string]float64) float64 {
	total := 0.0
	for _, k := range keys {
		total += weights[k] * rng.Float64()
	}
	return total
}

// goodMapReadOnly ranges over a map without drawing: legal.
func goodMapReadOnly(weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	return total
}

// allowedException documents a sanctioned wall-clock read.
func allowedException() time.Time {
	return time.Now() //botvet:ignore nodeterm fixture exercises the ignore directive
}
