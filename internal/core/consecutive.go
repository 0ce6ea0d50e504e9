package core

import (
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
	Target  string
	Family  dataset.Family
	Attacks []*dataset.Attack
	// Gaps are the start-minus-previous-end intervals in seconds (>= -60).
	Gaps []float64
}

// Length returns the number of attacks in the chain.
func (c *Chain) Length() int { return len(c.Attacks) }

// Duration returns first start to last end.
func (c *Chain) Duration() time.Duration {
	return c.Attacks[len(c.Attacks)-1].End.Sub(c.Attacks[0].Start)
}

// DetectChains finds multistage attacks: per target, consecutive attacks
// whose gap |start - previous end| stays within the margin. Only chains of
// at least minLen attacks are returned (the paper implies 2).
func DetectChains(s *dataset.Store, minLen int) []*Chain {
	if minLen < 2 {
		minLen = 2
	}
	var out []*Chain
	for _, tid := range s.TargetIDs().All() {
		target := s.TargetAddr(tid).String()
		var cur []int32
		var gaps []float64
		flush := func() {
			if len(cur) >= minLen {
				// Only qualifying chains materialize attack records; the
				// scan itself stays on the columns.
				attacks := make([]*dataset.Attack, len(cur))
				for k, row := range cur {
					attacks[k] = s.AttackRecordAt(int(row))
				}
				out = append(out, buildChain(target, attacks, gaps))
			}
			cur, gaps = nil, nil
		}
		rows := s.TargetRows(tid)
		for k := 0; k < rows.Len(); k++ {
			row := rows.At(k)
			if len(cur) == 0 {
				cur = []int32{row}
				continue
			}
			prevEnd := s.AttackAt(int(cur[len(cur)-1])).EndNano()
			gap := time.Duration(s.AttackAt(int(row)).StartNano() - prevEnd)
			if gap >= -ConsecutiveMargin && gap <= ConsecutiveMargin {
				cur = append(cur, row)
				gaps = append(gaps, gap.Seconds())
			} else {
				flush()
				cur = []int32{row}
			}
		}
		flush()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Attacks[0].Start.Equal(out[j].Attacks[0].Start) {
			return out[i].Attacks[0].Start.Before(out[j].Attacks[0].Start)
		}
		return out[i].Target < out[j].Target
	})
	return out
}

func buildChain(target string, attacks []*dataset.Attack, gaps []float64) *Chain {
	// A chain is intra-family in the paper's data; attribute it to the
	// majority family.
	counts := make(map[dataset.Family]int)
	for _, a := range attacks {
		counts[a.Family]++
	}
	return &Chain{Target: target, Family: dominantFamily(counts), Attacks: attacks, Gaps: gaps}
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
		out.FracWithin10s = stats.FractionBelow(gaps, 10)
		out.FracWithin30s = stats.FractionBelow(gaps, 30)
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

// ChainEvents flattens chains into the Fig 18 scatter.
func ChainEvents(chains []*Chain) []ChainEvent {
	var out []ChainEvent
	for _, c := range chains {
		for _, a := range c.Attacks {
			out = append(out, ChainEvent{
				Target:    c.Target,
				Family:    c.Family,
				Start:     a.Start,
				Magnitude: a.Magnitude(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}
