// Package core implements the paper's analyses: attack overview (types,
// daily distribution, intervals, durations — §III), source and target
// geolocation analysis with ARIMA prediction (§IV), and collaboration
// detection, both concurrent and multistage (§V).
//
// Every function consumes an indexed dataset.Store and returns plain data
// structures that internal/report renders and internal/experiments checks
// against the paper.
package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"time"

	"botscope/internal/dataset"
)

// ProtocolCount is one row of the attack-type breakdown (Fig 1).
type ProtocolCount struct {
	Category dataset.Category
	Count    int
}

// FamilyProtocolRow is one row of Table II: a (protocol, family) pair with
// its attack count.
type FamilyProtocolRow struct {
	Category dataset.Category
	Family   dataset.Family
	Count    int
}

// TypeCounts is the attack count per (category, family): the one state
// behind Figure 1 and Table II. The batch functions fold it over the
// store's rows, the streaming analyzer holds one per feed, and the cluster
// frontend adds the shards' rendered rows back into one; counts are sums,
// so any partition of the attacks adds up to the same value in any order.
// The zero value is empty and ready to use.
type TypeCounts struct {
	n map[dataset.Category]map[dataset.Family]int
}

// Add counts n more attacks of category c by family f.
func (t *TypeCounts) Add(c dataset.Category, f dataset.Family, n int) {
	fams := t.n[c]
	if fams == nil {
		if t.n == nil {
			t.n = make(map[dataset.Category]map[dataset.Family]int)
		}
		fams = make(map[dataset.Family]int)
		t.n[c] = fams
	}
	fams[f] += n
}

// Protocols renders Figure 1: attacks per category, ordered by count
// descending, ties by category display order.
func (t *TypeCounts) Protocols() []ProtocolCount {
	out := make([]ProtocolCount, 0, len(t.n))
	for _, c := range dataset.Categories {
		total := 0
		for _, n := range t.n[c] {
			total += n
		}
		if total > 0 {
			out = append(out, ProtocolCount{Category: c, Count: total})
		}
	}
	slices.SortStableFunc(out, func(a, b ProtocolCount) int { return cmp.Compare(b.Count, a.Count) })
	return out
}

// FamilyProtocol renders Table II: categories in display order, families
// alphabetically inside each.
func (t *TypeCounts) FamilyProtocol() []FamilyProtocolRow {
	var out []FamilyProtocolRow
	for _, c := range dataset.Categories {
		rows := make([]FamilyProtocolRow, 0, len(t.n[c]))
		for f, n := range t.n[c] {
			rows = append(rows, FamilyProtocolRow{Category: c, Family: f, Count: n})
		}
		slices.SortFunc(rows, func(a, b FamilyProtocolRow) int { return cmp.Compare(a.Family, b.Family) })
		out = append(out, rows...)
	}
	return out
}

// typeCounts folds the store's rows.
func typeCounts(s *dataset.Store) *TypeCounts {
	var t TypeCounts
	for i, n := 0, s.NumAttacks(); i < n; i++ {
		v := s.AttackAt(i)
		t.Add(v.Category(), v.Family(), 1)
	}
	return &t
}

// ProtocolBreakdown regenerates Figure 1 over the store.
func ProtocolBreakdown(s *dataset.Store) []ProtocolCount { return typeCounts(s).Protocols() }

// FamilyProtocolTable regenerates Table II over the store.
func FamilyProtocolTable(s *dataset.Store) []FamilyProtocolRow {
	return typeCounts(s).FamilyProtocol()
}

// DailyCount is one day of the attack-density series (Fig 2).
type DailyCount struct {
	Day   time.Time // midnight UTC of the day
	Count int
	// ByFamily breaks the day down per family.
	ByFamily map[dataset.Family]int
}

// DailyStats summarizes the daily distribution: the paper reports
// published.DailyMean attacks a day on average and published.DailyMax on
// Aug 30, 2012.
type DailyStats struct {
	Days    []DailyCount
	Average float64
	MaxDay  time.Time
	Max     int
	// MaxDominantFamily is the family contributing most attacks on the
	// peak day (Dirtjumper in the paper).
	MaxDominantFamily dataset.Family
}

// dominantFamily is the family with the highest count, ties to the
// alphabetically first.
func dominantFamily(counts map[dataset.Family]int) dataset.Family {
	best, bestN := dataset.Family(""), 0
	for f, n := range counts {
		if n > bestN || (n == bestN && f < best) {
			best, bestN = f, n
		}
	}
	return best
}

// DailyFold is the Fig 2 distribution as a fold over days that arrive in
// ascending order: attacks by start time (Observe), or days already summed
// (AddDay). Only the newest day can still change; every earlier one is
// closed once — appended to the series and folded into the peak — and never
// written again, so results may share those rows. Days are indexed from the
// UTC midnight of the first one seen; a bucket's date is absolute, so folds
// anchored on different days agree on it. The zero value is empty and
// ready to use.
type DailyFold struct {
	anchor  time.Time
	closed  DailyStats // the closed days and their peak; Average holds nothing
	sum     int        // attacks on the closed days
	openIdx int
	open    DailyCount // ByFamily is nil until the first day arrives
}

// Observe counts one attack of family f starting at start.
func (d *DailyFold) Observe(start time.Time, f dataset.Family) {
	b := d.day(start)
	b.Count++
	b.ByFamily[f]++
}

// AddDay adds a day's counts, leaving dc's map alone.
func (d *DailyFold) AddDay(dc DailyCount) {
	b := d.day(dc.Day)
	b.Count += dc.Count
	for f, n := range dc.ByFamily {
		b.ByFamily[f] += n
	}
}

// day returns the open bucket for t's UTC day, first closing the previous
// day when t has moved past it.
func (d *DailyFold) day(t time.Time) *DailyCount {
	if d.open.ByFamily == nil {
		d.anchor = time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, time.UTC)
	}
	idx := int(t.Sub(d.anchor).Hours() / 24)
	if d.open.ByFamily == nil || idx != d.openIdx {
		if d.open.ByFamily != nil {
			d.closed.Days = append(d.closed.Days, d.open)
			d.sum += d.open.Count
			d.closed.peak(d.open)
		}
		d.openIdx = idx
		d.open = DailyCount{Day: d.anchor.AddDate(0, 0, idx), ByFamily: make(map[dataset.Family]int)}
	}
	return &d.open
}

// peak folds one finished day into the headline: the earliest day with the
// highest count wins.
func (st *DailyStats) peak(dc DailyCount) {
	if dc.Count > st.Max {
		st.Max, st.MaxDay, st.MaxDominantFamily = dc.Count, dc.Day, dominantFamily(dc.ByFamily)
	}
}

// Result renders the distribution so far: the closed rows, shared, plus
// the open day over a copy of its still-changing map. The average is over
// the covered span, zero-attack days included, matching the paper's
// attacks-per-day figure. A fold that has seen nothing has no days.
func (d *DailyFold) Result() DailyStats {
	if d.open.ByFamily == nil {
		return DailyStats{}
	}
	st := d.closed
	today := d.open
	today.ByFamily = maps.Clone(today.ByFamily)
	st.Days = append(append(make([]DailyCount, 0, len(st.Days)+1), st.Days...), today)
	st.peak(today)
	st.Average = float64(d.sum+today.Count) / float64(d.openIdx+1)
	return st
}

// DailyPart is one partition's side of a DailyMerge: its whole ascending
// day series, and Through, the start of the latest attack of the whole
// feed — its own or another partition's — the partition has seen (zero:
// none). Its later rows cannot fall on an earlier UTC day than Through's.
type DailyPart struct {
	Days    []DailyCount
	Through time.Time
}

// DailyMerge merges, in day order, the ascending day series of disjoint
// partitions of one feed, held across calls. It is for one fixed set of
// partitions of a feed that arrives in start order, each of whose series
// only grows and changes only in its days from Through's on. A call folds
// into the held fold, once, every row on a day before the earliest
// partition's Through day: no partition can change or add such a row, an
// empty or lagging one included. It then forks the held fold and adds the
// rest, the open tail. A caller whose set of partitions changes starts
// again from the zero value, which is empty and ready to use.
type DailyMerge struct {
	held DailyFold
	next []int // per partition: its rows already in held
}

// Merge returns the distribution over parts, equal to merging their
// whole series afresh, and keeps their closed rows folded for the next call.
// Nothing the next call writes is shared with the result.
func (m *DailyMerge) Merge(parts []DailyPart) DailyStats {
	if len(m.next) != len(parts) {
		*m = DailyMerge{next: make([]int, len(parts))}
	}
	var bound time.Time
	for i, p := range parts {
		if day := p.Through.Truncate(24 * time.Hour); i == 0 || day.Before(bound) {
			bound = day
		}
	}
	foldDays(&m.held, parts, m.next, &bound)
	fork := m.held
	fork.closed.Days = slices.Clip(fork.closed.Days)
	foldDays(&fork, parts, slices.Clone(m.next), nil)
	return fork.Result()
}

// foldDays adds the parts' rows to d in day order, starting at next[i] in
// part i and advancing it, up to the first row not before *until (nil: to
// the end).
func foldDays(d *DailyFold, parts []DailyPart, next []int, until *time.Time) {
	for {
		first := -1
		for i, p := range parts {
			if next[i] < len(p.Days) && (first < 0 || p.Days[next[i]].Day.Before(parts[first].Days[next[first]].Day)) {
				first = i
			}
		}
		if first < 0 || until != nil && !parts[first].Days[next[first]].Day.Before(*until) {
			return
		}
		d.AddDay(parts[first].Days[next[first]])
		next[first]++
	}
}

// DailyDistribution buckets attacks per UTC day (by start time) and
// returns the Fig 2 series with its headline statistics. The error is
// non-nil for an empty store.
func DailyDistribution(s *dataset.Store) (DailyStats, error) {
	n := s.NumAttacks()
	if n == 0 {
		return DailyStats{}, fmt.Errorf("core: empty workload")
	}
	var d DailyFold
	for i := 0; i < n; i++ {
		v := s.AttackAt(i)
		d.Observe(v.Start(), v.Family())
	}
	return d.Result(), nil
}

// ActivityWindow describes when a family was active (first to last attack)
// and how much of the observation window that covers.
type ActivityWindow struct {
	Family   dataset.Family
	First    time.Time
	Last     time.Time
	Attacks  int
	Coverage float64 // fraction of the whole observation window
}

// FamilyActivity computes per-family activity windows, sorted by attack
// count descending (Dirtjumper first in the paper's data).
func FamilyActivity(s *dataset.Store) []ActivityWindow {
	first, last, ok := s.TimeBounds()
	if !ok {
		return nil
	}
	span := last.Sub(first).Seconds()
	var out []ActivityWindow
	for _, f := range s.Families().All() {
		rows := s.RowsByFamily(f)
		w := ActivityWindow{
			Family:  f,
			First:   s.AttackAt(int(rows.At(0))).Start(),
			Last:    s.AttackAt(int(rows.At(rows.Len() - 1))).Start(),
			Attacks: rows.Len(),
		}
		if span > 0 {
			w.Coverage = w.Last.Sub(w.First).Seconds() / span
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attacks != out[j].Attacks {
			return out[i].Attacks > out[j].Attacks
		}
		return out[i].Family < out[j].Family
	})
	return out
}
