package core

import (
	"fmt"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/par"
	"botscope/internal/stats"
)

// SimultaneousThreshold is the 60-second window inside which the paper
// treats two launches as concurrent (§II-D, §V).
const SimultaneousThreshold = 60 * time.Second

// AllIntervals returns the gaps between consecutive attacks across all
// families (the "all attacks" curve of Fig 3).
func AllIntervals(s *dataset.Store) []float64 {
	n := s.AttackRows()
	if n < 2 {
		return nil
	}
	out := make([]float64, 0, n-1)
	prev := s.AttackAt(0).StartNano()
	for i := 1; i < n; i++ {
		cur := s.AttackAt(i).StartNano()
		out = append(out, time.Duration(cur-prev).Seconds())
		prev = cur
	}
	return out
}

// FamilyIntervals returns the per-family gap series (the family curves of
// Figs 3 and 5).
func FamilyIntervals(s *dataset.Store, f dataset.Family) []float64 {
	return rowIntervals(s, s.RowsByFamily(f))
}

// rowIntervals returns the gaps in seconds between consecutive starts of
// a chronologically ordered row list, computed from the start column.
func rowIntervals(s *dataset.Store, rows []int32) []float64 {
	if len(rows) < 2 {
		return nil
	}
	out := make([]float64, 0, len(rows)-1)
	prev := s.AttackAt(int(rows[0])).StartNano()
	for _, row := range rows[1:] {
		cur := s.AttackAt(int(row)).StartNano()
		out = append(out, time.Duration(cur-prev).Seconds())
		prev = cur
	}
	return out
}

// IntervalStats carries the headline interval numbers the paper reports
// in §III-B.
type IntervalStats struct {
	stats.Summary
	// SimultaneousFrac is the fraction of gaps below the 60 s threshold.
	SimultaneousFrac float64
	// ExactZeroFrac is the fraction of gaps that are exactly zero.
	ExactZeroFrac float64
}

// AnalyzeIntervals summarizes a gap series. The error is non-nil for an
// empty series.
func AnalyzeIntervals(gaps []float64) (IntervalStats, error) {
	if len(gaps) == 0 {
		return IntervalStats{}, fmt.Errorf("core: no intervals to analyze")
	}
	st := IntervalStats{Summary: stats.Summarize(gaps)}
	zero, simult := 0, 0
	for _, g := range gaps {
		if stats.IsZero(g) {
			zero++
		}
		if g < SimultaneousThreshold.Seconds() {
			simult++
		}
	}
	st.ExactZeroFrac = float64(zero) / float64(len(gaps))
	st.SimultaneousFrac = float64(simult) / float64(len(gaps))
	return st, nil
}

// IntervalCDF builds the empirical CDF of a gap series (Figs 3, 5).
func IntervalCDF(gaps []float64) *stats.ECDF {
	return stats.NewECDF(gaps)
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

// ConcurrencyKind distinguishes the paper's two categories of concurrent
// attacks (§III-B).
type ConcurrencyKind int

// Concurrency categories.
const (
	// SingleFamily means all concurrent attacks in the group come from
	// one family.
	SingleFamily ConcurrencyKind = iota + 1
	// MultiFamily means at least two families launched within the window.
	MultiFamily
)

// TargetIntervals returns, for each target attacked at least minAttacks
// times, the gap series between consecutive attacks on it. The paper uses
// these to predict the start time of the next anticipated attack. The
// per-target extraction is sharded over disjoint target ranges; shard maps
// have disjoint key sets, so their union is order-independent.
func TargetIntervals(s *dataset.Store, minAttacks int) map[string][]float64 {
	if minAttacks < 2 {
		minAttacks = 2
	}
	tids := s.TargetIDs()
	shards := par.ChunkMap(0, len(tids), func(lo, hi int) map[string][]float64 {
		m := make(map[string][]float64)
		for _, tid := range tids[lo:hi] {
			rows := s.TargetRows(tid)
			if len(rows) < minAttacks {
				continue
			}
			m[s.TargetAddr(tid).String()] = rowIntervals(s, rows)
		}
		return m
	})
	out := make(map[string][]float64)
	for _, m := range shards {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}
