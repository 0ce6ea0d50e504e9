package stats

import (
	"fmt"
	"math"
)

// UniformityScore is the chi-square goodness-of-fit statistic of bin
// counts against a uniform expectation, normalized to a Cramér's V-style
// effect size in [0, 1]: 0 for perfectly uniform counts, approaching 1 as
// mass concentrates. botscope uses it for the paper's §III-A observation
// that attack counts show none of the diurnal patterns of user-driven
// traffic. Unlike a p-value it is sample-size independent, so "diurnal or
// not" comparisons across workload scales stay meaningful. It returns an
// error for fewer than two bins, a negative count or zero totals.
func UniformityScore(counts []int) (float64, error) {
	if len(counts) < 2 {
		return 0, fmt.Errorf("stats: chi-square needs >= 2 bins, got %d", len(counts))
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			return 0, fmt.Errorf("stats: negative count %d", c)
		}
		total += c
	}
	if total == 0 {
		return 0, fmt.Errorf("stats: chi-square on empty counts")
	}
	expected := float64(total) / float64(len(counts))
	var stat float64
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	maxStat := float64(total) * float64(len(counts)-1)
	return math.Sqrt(stat / maxStat), nil
}
