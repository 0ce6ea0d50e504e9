// Package oracle states the paper's §III overview definitions a second
// time, naively and one record at a time — no columns, no ids, no memo, no
// par — so that the kernels in internal/core, and the products that
// experiments.Workload and botserve hold, are checked against something
// other than their own earlier output. It is test-only: nothing outside
// this directory imports it.
//
// It covers what the Workload holds for §III: the inter-attack intervals
// (all attacks and per family) with their simultaneous and exact-zero
// shares, the duration shares and median, and the per-day counts with the
// peak day's dominant family.
package oracle

import (
	"sort"
	"time"

	"botscope/internal/dataset"
)

// simultaneous is §III-B's window: an attack launched less than 60 s after
// the previous one is simultaneous with it.
const simultaneous = 60.0

// chronological returns the attacks in launch order, ties broken by
// ddos_id, the dataset's one other order. An insertion sort: quadratic and
// plainly right.
func chronological(attacks []*dataset.Attack) []*dataset.Attack {
	out := append([]*dataset.Attack(nil), attacks...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && launchedBefore(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func launchedBefore(a, b *dataset.Attack) bool {
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	return a.ID < b.ID
}

// intervals returns, in launch order, the seconds between each attack's
// launch and the previous one's: over every attack when family is empty,
// else over that family's attacks alone (§III-B, Figs 3 and 5).
func intervals(attacks []*dataset.Attack, family dataset.Family) []float64 {
	var gaps []float64
	var prev *dataset.Attack
	for _, a := range chronological(attacks) {
		if family != "" && a.Family != family {
			continue
		}
		if prev != nil {
			gaps = append(gaps, a.Start.Sub(prev.Start).Seconds())
		}
		prev = a
	}
	return gaps
}

// shareSimultaneous is the share of gaps under the 60 s window.
func shareSimultaneous(gaps []float64) float64 {
	n := 0
	for _, g := range gaps {
		if g < simultaneous {
			n++
		}
	}
	return float64(n) / float64(len(gaps))
}

// shareExactZero is the share of gaps of exactly zero: attacks launched at
// the same second.
func shareExactZero(gaps []float64) float64 {
	n := 0
	for _, g := range gaps {
		if g == 0 {
			n++
		}
	}
	return float64(n) / float64(len(gaps))
}

// durations returns each attack's end minus start, in seconds, in launch
// order (§III-C, Figs 6 and 7).
func durations(attacks []*dataset.Attack) []float64 {
	var out []float64
	for _, a := range chronological(attacks) {
		out = append(out, a.End.Sub(a.Start).Seconds())
	}
	return out
}

// shareAtMost is the share of xs at or under limit. §III-C's "shorter
// than 4 hours" and "shorter than 60 s" are read as at most: an attack of
// exactly 60 s counts as short. That is the reading the kernels, the
// stream and the cluster share; the generator clamps hundreds of attacks
// to exactly 60 s and 4 h, so the strict reading would move Figure 7.
func shareAtMost(xs []float64, limit float64) float64 {
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// median is the middle value of xs, or the mean of the two middle ones.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// day is one UTC calendar day of Fig 2 on which attacks were launched.
type day struct {
	date     string // 2006-01-02
	count    int
	dominant dataset.Family // most attacks that day; ties to the alphabetically first
}

// days buckets attacks by the UTC date of their launch, in date order;
// days without an attack are not listed.
func days(attacks []*dataset.Attack) []day {
	var out []day
	var perFamily []map[dataset.Family]int
	for _, a := range chronological(attacks) {
		date := a.Start.UTC().Format("2006-01-02")
		if len(out) == 0 || out[len(out)-1].date != date {
			out = append(out, day{date: date})
			perFamily = append(perFamily, map[dataset.Family]int{})
		}
		out[len(out)-1].count++
		perFamily[len(out)-1][a.Family]++
	}
	for i, counts := range perFamily {
		for f, n := range counts {
			best := out[i].dominant
			if n > counts[best] || (n == counts[best] && f < best) {
				out[i].dominant = f
			}
		}
	}
	return out
}

// peak is the day with the most attacks, the earliest of those on a tie.
func peak(ds []day) day {
	best := ds[0]
	for _, d := range ds[1:] {
		if d.count > best.count {
			best = d
		}
	}
	return best
}

// average is attacks per day over the calendar days from the first
// launch's to the last one's, both included, attack-free days counted
// (Fig 2's 243 a day).
func average(attacks []*dataset.Attack) float64 {
	ds := days(attacks)
	first, _ := time.Parse("2006-01-02", ds[0].date)
	last, _ := time.Parse("2006-01-02", ds[len(ds)-1].date)
	span := int(last.Sub(first).Hours()/24) + 1
	return float64(len(attacks)) / float64(span)
}
