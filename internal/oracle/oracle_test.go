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
// peak day's dominant family; and §II-B's concurrent load. For §V it covers the collaborations with
// their Table VI counts, and the multistage chains with Fig 17's gap
// shares.
package oracle

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"botscope/internal/core"
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

// load is §II-B's concurrent load: the attacks in progress over time, its
// peak and its time-weighted mean.
type load struct {
	peak   int
	peakAt time.Time
	mean   float64
}

// concurrentLoad counts, at every instant an attack starts or ends, the
// attacks in progress then: started at or before it and not yet ended
// (start <= t < end), so a zero-duration attack is never in progress. The
// peak is the first instant with the most; the mean is the count's
// integral over [first start, last end] divided by that span.
func concurrentLoad(attacks []*dataset.Attack) load {
	var instants []time.Time
	for _, a := range attacks {
		instants = append(instants, a.Start, a.End)
	}
	sort.Slice(instants, func(i, j int) bool { return instants[i].Before(instants[j]) })
	var out load
	var integral float64
	for i, t := range instants {
		if i > 0 && t.Equal(instants[i-1]) {
			continue
		}
		n := 0
		for _, a := range attacks {
			if !a.Start.After(t) && t.Before(a.End) {
				n++
			}
		}
		if n > out.peak {
			out.peak, out.peakAt = n, t
		}
		if last := instants[len(instants)-1]; t.Before(last) {
			next := i + 1
			for instants[next].Equal(t) {
				next++
			}
			integral += float64(n) * instants[next].Sub(t).Seconds()
		}
	}
	if span := instants[len(instants)-1].Sub(instants[0]).Seconds(); span > 0 {
		out.mean = integral / span
	}
	return out
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

// §V's criteria, in seconds: collaborating attacks on one target launch
// less than 60 s apart and last within 30 min of each other; a chain's
// next strike starts within 60 s of the previous one's end, before or
// after it.
const collabStart, collabDuration, chainMargin = 60.0, 1800.0, 60.0

// perTarget returns each target's attacks in launch order.
func perTarget(attacks []*dataset.Attack) map[string][]*dataset.Attack {
	out := map[string][]*dataset.Attack{}
	for _, a := range chronological(attacks) {
		out[a.TargetIP.String()] = append(out[a.TargetIP.String()], a)
	}
	return out
}

// event is one collaboration or chain: its target and its attacks' ids
// (ascending for a collaboration, in launch order for a chain); a
// collaboration's distinct families, sorted, and botnet count; a chain's
// seconds from each strike's end to the next one's start.
type event struct {
	target   string
	ids      []dataset.DDoSID
	families []dataset.Family
	botnets  int
	gaps     []float64
}

// keys renders events in one order, whatever order they were found in.
func keys(es []event) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%+v", e)
	}
	slices.Sort(out)
	return out
}

// collaborations finds §V's collaborative attacks. On one target a window
// opens at the first attack not yet in one and takes every later attack
// launched less than 60 s after it. Of the window's attacks, the most
// whose durations lie within 30 min of each other (on a tie, the
// shortest-lasting such set) collaborate when two or more distinct
// botnets launched them.
func collaborations(attacks []*dataset.Attack) []event {
	var out []event
	for target, list := range perTarget(attacks) {
		for i, j := 0, 0; i < len(list); i = j {
			for j = i + 1; j < len(list) && list[j].Start.Sub(list[i].Start).Seconds() < collabStart; j++ {
			}
			var band []*dataset.Attack
			for _, lo := range list[i:j] {
				var b []*dataset.Attack
				for _, a := range list[i:j] {
					if d := (a.Duration() - lo.Duration()).Seconds(); d >= 0 && d <= collabDuration {
						b = append(b, a)
					}
				}
				if len(b) > len(band) || len(b) == len(band) && lo.Duration() < band[0].Duration() {
					band = b
				}
			}
			e, botnets, fams := event{target: target}, map[dataset.BotnetID]bool{}, map[dataset.Family]bool{}
			for _, a := range band {
				e.ids, botnets[a.BotnetID], fams[a.Family] = append(e.ids, a.ID), true, true
			}
			if e.botnets = len(botnets); e.botnets >= 2 {
				slices.Sort(e.ids)
				e.families = slices.Sorted(maps.Keys(fams))
				out = append(out, e)
			}
		}
	}
	return out
}

// tableVI counts collaborations as Table VI does, in the kernels' shape:
// a one-family one under that family's intra column, any other under each
// of its families' inter columns and once under the pair its families
// form ("a+b", sorted); and the mean distinct botnets per collaboration.
func tableVI(collabs []event) core.CollabCounts {
	out := core.CollabCounts{Intra: map[dataset.Family]int{}, Inter: map[dataset.Family]int{}, PairCounts: map[string]int{}, Qualified: len(collabs)}
	for _, c := range collabs {
		out.BotnetTotal += c.botnets
		if len(c.families) == 1 {
			out.TotalIntra++
			out.Intra[c.families[0]]++
			continue
		}
		out.TotalInter++
		for i, f := range c.families {
			out.Inter[f]++
			for _, g := range c.families[i+1:] {
				out.PairCounts[string(f)+"+"+string(g)]++
			}
		}
	}
	if len(collabs) > 0 {
		out.MeanBotnets = float64(out.BotnetTotal) / float64(len(collabs))
	}
	return out
}

// chains finds §V-B's multistage attacks: on one target, runs of two or
// more attacks, each launched within 60 s of the previous one's end.
func chains(attacks []*dataset.Attack) []event {
	var out []event
	for target, list := range perTarget(attacks) {
		var e event
		for k, a := range list {
			if k > 0 {
				if gap := a.Start.Sub(list[k-1].End).Seconds(); math.Abs(gap) <= chainMargin {
					e.ids, e.gaps = append(e.ids, a.ID), append(e.gaps, gap)
					continue
				}
			}
			if len(e.ids) >= 2 {
				out = append(out, e)
			}
			e = event{target: target, ids: []dataset.DDoSID{a.ID}}
		}
		if len(e.ids) >= 2 {
			out = append(out, e)
		}
	}
	return out
}
