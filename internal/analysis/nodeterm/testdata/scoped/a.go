// Package synth seeds nodeterm violations inside a scoped package path.
package synth

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

func stamp() time.Time {
	return time.Now() // want `call to time.Now in deterministic package`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `call to time.Since in deterministic package`
}

func roll() int {
	return rand.Intn(6) // want `call to global rand.Intn in deterministic package`
}

func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `call to global rand.Shuffle`
}

// seeded shows the approved idiom: constructors and methods on an
// injected, seeded generator are fine.
func seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want `out is built in map-iteration order and returned without sorting`
		out = append(out, k)
	}
	return out
}

func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func namedResult(m map[string]int) (out []string) {
	for k := range m { // want `out is built in map-iteration order and returned without sorting`
		out = append(out, k)
	}
	return
}

func dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `output emitted during map iteration has nondeterministic order`
	}
}

// total aggregates commutatively; map order cannot leak.
func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func allowed() time.Time {
	//botvet:ignore nodeterm fixture exercises the ignore directive
	return time.Now()
}
