package core

import (
	"time"

	"botscope/internal/dataset"
	"botscope/internal/memo"
)

// FamilyIntervals returns the per-family gap series (the family curves of
// Figs 3 and 5).
func FamilyIntervals(s *dataset.Store, f dataset.Family) []float64 {
	return rowIntervals(s, s.RowsByFamily(f))
}

// rowIntervals returns the gaps in seconds between consecutive starts of
// a chronologically ordered row list, computed from the start column.
func rowIntervals(s *dataset.Store, rows memo.View[int32]) []float64 {
	if rows.Len() < 2 {
		return nil
	}
	out := make([]float64, 0, rows.Len()-1)
	prev := s.AttackAt(int(rows.At(0))).StartNano()
	for i := 1; i < rows.Len(); i++ {
		cur := s.AttackAt(int(rows.At(i))).StartNano()
		out = append(out, time.Duration(cur-prev).Seconds())
		prev = cur
	}
	return out
}

// IntervalCluster is one duration-scale bucket of Fig 4.
type IntervalCluster struct {
	Label string
	// Lo and Hi bound the bucket in seconds, half-open [Lo, Hi).
	Lo, Hi float64
	Count  int
}

// ClusterIntervals groups the non-simultaneous gaps of a family into the
// paper's Fig 4 time-unit clusters (minutes, hours, days, weeks, months)
// with finer sub-buckets inside the minute/hour ranges where the paper
// observed the 6-7 min, 20-40 min and 2-3 h modes.
func ClusterIntervals(gaps []float64) []IntervalCluster {
	clusters := []IntervalCluster{
		{Label: "1-5 min", Lo: 60, Hi: 300},
		{Label: "5-10 min", Lo: 300, Hi: 600},
		{Label: "10-20 min", Lo: 600, Hi: 1200},
		{Label: "20-40 min", Lo: 1200, Hi: 2400},
		{Label: "40-90 min", Lo: 2400, Hi: 5400},
		{Label: "1.5-4 hr", Lo: 5400, Hi: 14400},
		{Label: "4-24 hr", Lo: 14400, Hi: 86400},
		{Label: "1-7 day", Lo: 86400, Hi: 604800},
		{Label: "1-4 week", Lo: 604800, Hi: 2419200},
		{Label: "1+ month", Lo: 2419200, Hi: 1e18},
	}
	for _, g := range gaps {
		if g < SimultaneousThreshold.Seconds() {
			continue // Fig 4 excludes simultaneous launches
		}
		for i := range clusters {
			if g >= clusters[i].Lo && g < clusters[i].Hi {
				clusters[i].Count++
				break
			}
		}
	}
	return clusters
}
