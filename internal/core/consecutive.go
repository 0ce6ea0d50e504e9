package core

import (
	"slices"
	"sort"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/stats"
)

// ConsecutiveMargin is the paper's multistage criterion (§V-B): the next
// attack starts within 60 seconds of the previous attack's end (including
// small overlaps).
const ConsecutiveMargin = 60 * time.Second

// Chain is one multistage attack: back-to-back strikes on one target.
type Chain struct {
	Target string
	Family dataset.Family
	// Rows are the members' store rows in start order; read them through
	// Store.AttackAt.
	Rows []int32
	// Start is the first member's start and End the last member's end.
	Start, End time.Time
	// Gaps are the start-minus-previous-end intervals in seconds (>= -60).
	Gaps []float64
}

// Length returns the number of attacks in the chain.
func (c *Chain) Length() int { return len(c.Rows) }

// Duration returns first start to last end.
func (c *Chain) Duration() time.Duration { return c.End.Sub(c.Start) }

// DetectChains finds multistage attacks: per target, consecutive attacks
// whose gap |start - previous end| stays within the margin. Only chains of
// at least minLen attacks are returned (the paper implies 2). The scan
// runs on the columns over one reused run buffer; a kept chain copies its
// rows and gaps, and a target's address is formatted for its first kept
// chain only.
func DetectChains(s *dataset.Store, minLen int) []*Chain {
	if minLen < 2 {
		minLen = 2
	}
	var (
		out  []*Chain
		run  []int32
		gaps []float64
	)
	for _, tid := range s.TargetIDs().All() {
		target := ""
		flush := func() {
			if len(run) >= minLen {
				if target == "" {
					target = s.TargetAddr(tid).String()
				}
				out = append(out, buildChain(s, target, run, gaps))
			}
			run, gaps = run[:0], gaps[:0]
		}
		rows := s.TargetRows(tid)
		for k := 0; k < rows.Len(); k++ {
			row := rows.At(k)
			if len(run) > 0 {
				gap := time.Duration(s.AttackAt(int(row)).StartNano() - s.AttackAt(int(run[len(run)-1])).EndNano())
				if gap >= -ConsecutiveMargin && gap <= ConsecutiveMargin {
					run, gaps = append(run, row), append(gaps, gap.Seconds())
					continue
				}
				flush()
			}
			run = append(run, row)
		}
		flush()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// buildChain keeps one run, attributed to its majority family: a chain is
// intra-family in the paper's data.
func buildChain(s *dataset.Store, target string, run []int32, gaps []float64) *Chain {
	counts := make(map[dataset.Family]int)
	for _, row := range run {
		counts[s.AttackAt(int(row)).Family()]++
	}
	first, last := s.AttackAt(int(run[0])), s.AttackAt(int(run[len(run)-1]))
	return &Chain{Target: target, Family: dominantFamily(counts), Rows: slices.Clone(run), Start: first.Start(), End: last.End(), Gaps: slices.Clone(gaps)}
}

// ChainStats summarizes §V-B: which families run multistage attacks, the
// gap distribution (Fig 17), and the longest chain (the paper: Ddoser,
// 22 attacks in ~18 minutes).
type ChainStats struct {
	Chains []*Chain
	// Families involved in multistage attacks, sorted by chain count.
	Families []dataset.Family
	// GapSummary describes all inter-strike gaps.
	GapSummary stats.Summary
	// FracWithin10s / FracWithin30s are Fig 17's landmarks (~65% / ~80%).
	FracWithin10s float64
	FracWithin30s float64
	Longest       *Chain
}

// AnalyzeChains detects chains and summarizes them. Chains may be empty,
// in which case the zero stats are returned.
func AnalyzeChains(s *dataset.Store) ChainStats {
	chains := DetectChains(s, 2)
	out := ChainStats{Chains: chains}
	if len(chains) == 0 {
		return out
	}
	famCounts := make(map[dataset.Family]int)
	var gaps []float64
	for _, c := range chains {
		famCounts[c.Family]++
		gaps = append(gaps, c.Gaps...)
		if out.Longest == nil || c.Length() > out.Longest.Length() {
			out.Longest = c
		}
	}
	for f := range famCounts {
		out.Families = append(out.Families, f)
	}
	sort.Slice(out.Families, func(i, j int) bool {
		if famCounts[out.Families[i]] != famCounts[out.Families[j]] {
			return famCounts[out.Families[i]] > famCounts[out.Families[j]]
		}
		return out.Families[i] < out.Families[j]
	})
	if len(gaps) > 0 {
		out.GapSummary = stats.Summarize(gaps)
		out.FracWithin10s = stats.FractionAtMost(gaps, 10)
		out.FracWithin30s = stats.FractionAtMost(gaps, 30)
	}
	return out
}

// GapCDF builds Fig 17's CDF over all chain gaps (clamped at zero from
// below, since small overlaps read as zero wait).
func GapCDF(chains []*Chain) *stats.ECDF {
	var gaps []float64
	for _, c := range chains {
		for _, g := range c.Gaps {
			if g < 0 {
				g = 0
			}
			gaps = append(gaps, g)
		}
	}
	return stats.NewECDF(gaps)
}

// ChainEvent is one dot of Fig 18: an attack inside a chain with its
// magnitude.
type ChainEvent struct {
	Target    string
	Family    dataset.Family
	Start     time.Time
	Magnitude int
}

// ChainEvents flattens chains detected on s into the Fig 18 scatter.
func ChainEvents(s *dataset.Store, chains []*Chain) []ChainEvent {
	var out []ChainEvent
	for _, c := range chains {
		for _, row := range c.Rows {
			v := s.AttackAt(int(row))
			out = append(out, ChainEvent{
				Target:    c.Target,
				Family:    c.Family,
				Start:     v.Start(),
				Magnitude: v.Magnitude(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
