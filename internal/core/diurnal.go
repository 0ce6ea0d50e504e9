package core

import (
	"fmt"
	"math"

	"botscope/internal/dataset"
	"botscope/internal/par"
	"botscope/internal/stats"
)

// The paper observes (§III-A) that attack counts show none of the diurnal
// or weekly patterns of user-driven Internet activity — DDoS launches are
// event- and profit-driven. This file makes that claim testable: bucket
// attack starts by hour of day and day of week and score the concentration
// against a reference diurnal (web-traffic-like) profile.

// HourOfDayCounts buckets attack starts into 24 UTC hours. The scan is
// sharded over contiguous attack ranges; integer bucket sums are
// order-independent, so the result matches a sequential pass.
func HourOfDayCounts(s *dataset.Store) [24]int {
	n := s.NumAttacks()
	var out [24]int
	for _, shard := range par.ChunkMap(n, func(lo, hi int) [24]int {
		var c [24]int
		for i := lo; i < hi; i++ {
			c[s.AttackAt(i).Start().Hour()]++
		}
		return c
	}) {
		for h, n := range shard {
			out[h] += n
		}
	}
	return out
}

// DayOfWeekCounts buckets attack starts into 7 weekdays (Sunday = 0),
// sharded the same way as HourOfDayCounts.
func DayOfWeekCounts(s *dataset.Store) [7]int {
	n := s.NumAttacks()
	var out [7]int
	for _, shard := range par.ChunkMap(n, func(lo, hi int) [7]int {
		var c [7]int
		for i := lo; i < hi; i++ {
			c[int(s.AttackAt(i).Start().Weekday())]++
		}
		return c
	}) {
		for d, n := range shard {
			out[d] += n
		}
	}
	return out
}

// DiurnalAnalysis quantifies how day-shaped the attack timing is.
type DiurnalAnalysis struct {
	HourCounts    [24]int
	WeekdayCounts [7]int
	// HourScore/WeekdayScore are concentration scores in [0, 1]
	// (0 = perfectly flat). User-driven traffic lands far above DDoS
	// launch processes.
	HourScore    float64
	WeekdayScore float64
	// ReferenceHourScore is the score of a canonical diurnal web-traffic
	// profile with the same total volume, for comparison.
	ReferenceHourScore float64
	// Diurnal reports whether the workload looks day-driven: its hourly
	// concentration reaches at least half the reference profile's.
	Diurnal bool
}

// AnalyzeDiurnal computes the timing-pattern analysis. The error is
// non-nil for an empty workload.
func AnalyzeDiurnal(s *dataset.Store) (DiurnalAnalysis, error) {
	if s.NumAttacks() == 0 {
		return DiurnalAnalysis{}, fmt.Errorf("core: empty workload")
	}
	out := DiurnalAnalysis{
		HourCounts:    HourOfDayCounts(s),
		WeekdayCounts: DayOfWeekCounts(s),
	}
	var err error
	out.HourScore, err = stats.UniformityScore(out.HourCounts[:])
	if err != nil {
		return DiurnalAnalysis{}, err
	}
	out.WeekdayScore, err = stats.UniformityScore(out.WeekdayCounts[:])
	if err != nil {
		return DiurnalAnalysis{}, err
	}
	ref := ReferenceDiurnalCounts(s.NumAttacks())
	out.ReferenceHourScore, err = stats.UniformityScore(ref[:])
	if err != nil {
		return DiurnalAnalysis{}, err
	}
	out.Diurnal = out.HourScore >= out.ReferenceHourScore/2
	return out, nil
}

// ReferenceDiurnalCounts builds a canonical user-driven hourly profile
// (sinusoidal day shape peaking mid-day, troughing at night, peak/trough
// ratio ~4x) carrying the given total volume. It is the comparison point
// for the paper's "no diurnal pattern" claim.
func ReferenceDiurnalCounts(total int) [24]int {
	var weights [24]float64
	var sum float64
	for h := 0; h < 24; h++ {
		// Peak at 14:00, trough at 02:00.
		w := 1 + 0.6*math.Sin(2*math.Pi*(float64(h)-8)/24)
		weights[h] = w
		sum += w
	}
	var out [24]int
	assigned := 0
	for h := 0; h < 24; h++ {
		n := int(float64(total) * weights[h] / sum)
		out[h] = n
		assigned += n
	}
	// Distribute rounding leftovers onto the peak hour.
	out[14] += total - assigned
	return out
}
