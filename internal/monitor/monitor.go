// Package monitor reproduces the collection semantics of the paper's
// botnet-monitoring service (§II-B): hourly reports per family whose bot
// sets are cumulative over the trailing 24 hours, plus the weekly
// source-country aggregation behind the shift-pattern analysis (Fig 8).
package monitor

import (
	"fmt"
	"sort"
	"time"

	"botscope/internal/dataset"
)

// HourlyReport is one snapshot of one family: how much bot activity the
// monitoring service would have logged during the trailing 24 hours.
type HourlyReport struct {
	Family dataset.Family
	Time   time.Time
	// ActiveAttacks is the number of attacks overlapping the hour.
	ActiveAttacks int
	// BotRefs counts bot participations in the trailing 24 h window
	// (a bot attacking twice counts twice, as in raw traffic logs).
	BotRefs int
	// CountryRefs breaks BotRefs down by source country.
	CountryRefs map[string]int
}

// Collector derives monitoring reports from a workload store.
type Collector struct {
	store *dataset.Store
	// Lookback is the cumulative window per report; the paper's service
	// used 24 hours.
	Lookback time.Duration
	// Step is the report cadence; the paper's service reported hourly.
	Step time.Duration
}

// NewCollector builds a collector with the paper's 24-hour/1-hour cadence.
func NewCollector(store *dataset.Store) *Collector {
	return &Collector{store: store, Lookback: 24 * time.Hour, Step: time.Hour}
}

// HourlyReports replays the window and emits one report per step for the
// family. It returns an error for an empty workload or non-positive cadence.
func (c *Collector) HourlyReports(family dataset.Family) ([]HourlyReport, error) {
	if c.Step <= 0 || c.Lookback <= 0 {
		return nil, fmt.Errorf("monitor: non-positive step or lookback")
	}
	first, last, ok := c.store.TimeBounds()
	if !ok {
		return nil, fmt.Errorf("monitor: empty workload")
	}
	rows := c.store.RowsByFamily(family)
	if len(rows) == 0 {
		return nil, fmt.Errorf("monitor: family %s has no attacks", family)
	}

	// Sweep: every attack contributes its bot references to reports in
	// [Start, End+Lookback). Build signed per-step deltas, then prefix-sum.
	steps := int(last.Add(c.Lookback).Sub(first)/c.Step) + 1
	deltas := make([]delta, steps+1)
	stepIdx := func(t time.Time) int {
		return max(0, min(steps, int(t.Sub(first)/c.Step)))
	}

	// Countries are counted by interned-string id in one scratch array
	// that each attack resets through its touched list; strings are read
	// once per report. live is the family's source countries, each once.
	ix := c.store.BotDense()
	cols := c.store.Cols()
	count := make([]int32, cols.NumStrings())
	seen := make([]bool, cols.NumStrings())
	var touched, live []int32
	for _, row := range rows {
		v := c.store.AttackAt(int(row))
		span := ix.RefsRow(int(row))
		for _, id := range span {
			cid := ix.CountryID(id)
			if cid < 0 {
				continue
			}
			if count[cid] == 0 {
				touched = append(touched, cid)
			}
			count[cid]++
		}
		add := &deltas[stepIdx(v.Start())]
		sub := &deltas[stepIdx(v.End().Add(c.Lookback))]
		add.refs += len(span)
		sub.refs -= len(span)
		for _, cid := range touched {
			add.countries = append(add.countries, countryCount{cid, count[cid]})
			sub.countries = append(sub.countries, countryCount{cid, -count[cid]})
			count[cid] = 0
			if !seen[cid] {
				seen[cid] = true
				live = append(live, cid)
			}
		}
		touched = touched[:0]
		add.active++
		deltas[stepIdx(v.End())].active--
	}

	reports := make([]HourlyReport, 0, steps)
	curRefs, curActive := 0, 0
	cur := count // all zero again: the running per-country total
	for i, d := range deltas[:steps] {
		curRefs += d.refs
		curActive += d.active
		for _, cn := range d.countries {
			cur[cn.cid] += cn.n
		}
		snapshot := make(map[string]int, len(live))
		for _, cid := range live {
			if n := cur[cid]; n > 0 {
				snapshot[cols.Str(cid)] = int(n)
			}
		}
		reports = append(reports, HourlyReport{
			Family:        family,
			Time:          first.Add(time.Duration(i) * c.Step),
			ActiveAttacks: curActive,
			BotRefs:       curRefs,
			CountryRefs:   snapshot,
		})
	}
	return reports, nil
}

// delta is the signed change one report step applies to the totals.
type delta struct {
	refs, active int
	countries    []countryCount
}

// countryCount is n bot references from the country with interned id cid.
type countryCount struct{ cid, n int32 }

// WeekStats aggregates one family's attack sources over one week: the
// unique bots seen per country, and which countries are new relative to
// every earlier week. This is the raw material of Fig 8.
type WeekStats struct {
	Week int // 0-based week index from the first attack
	// BotsByCountry counts unique bots per source country.
	BotsByCountry map[string]int
	// NewCountries lists countries never seen in any earlier week.
	NewCountries []string
}

// Shifts returns the number of bot observations in countries already
// known from earlier weeks, and in newly seen ones.
func (w WeekStats) Shifts() (existing, fresh int) {
	newSet := make(map[string]bool, len(w.NewCountries))
	for _, cc := range w.NewCountries {
		newSet[cc] = true
	}
	for cc, c := range w.BotsByCountry {
		if newSet[cc] {
			fresh += c
		} else {
			existing += c
		}
	}
	return existing, fresh
}

// ExistingShift returns the number of bot observations in countries
// already known from earlier weeks.
func (w WeekStats) ExistingShift() int {
	existing, _ := w.Shifts()
	return existing
}

// NewShift returns the number of bot observations in newly seen countries.
func (w WeekStats) NewShift() int {
	_, fresh := w.Shifts()
	return fresh
}

// WeeklySources computes the week-by-week source aggregation for a family.
// An error is returned when the family has no attacks.
//
// The family's attacks arrive sorted by start time, so week indexes are
// nondecreasing along the scan and one stamp array over the dense bot
// index ("which week was this bot last counted in") deduplicates bots
// within a week — unresolved ones too, which are never counted. Countries
// are counted by interned-string id; a week's BotsByCountry map is
// written once, at flush, from the ids the week touched.
func (c *Collector) WeeklySources(family dataset.Family) ([]WeekStats, error) {
	rows := c.store.RowsByFamily(family)
	if len(rows) == 0 {
		return nil, fmt.Errorf("monitor: family %s has no attacks", family)
	}
	first, _, _ := c.store.TimeBounds()
	weekOf := func(t time.Time) int {
		return int(t.Sub(first).Hours() / (24 * 7))
	}
	ix := c.store.BotDense()
	cols := c.store.Cols()
	stamp := make([]int32, ix.NumIDs()) // 0 = never seen; week+1 otherwise
	count := make([]int32, cols.NumStrings())
	seen := make([]bool, cols.NumStrings()) // countries of earlier weeks
	var touched []int32

	out := make([]WeekStats, 0, 8)
	curWeek := -1
	flush := func() {
		if curWeek < 0 {
			return
		}
		byCountry := make(map[string]int, len(touched))
		var fresh []string
		for _, cid := range touched {
			cc := cols.Str(cid)
			byCountry[cc] = int(count[cid])
			count[cid] = 0
			if !seen[cid] {
				seen[cid] = true
				fresh = append(fresh, cc)
			}
		}
		touched = touched[:0]
		sort.Strings(fresh)
		out = append(out, WeekStats{Week: curWeek, BotsByCountry: byCountry, NewCountries: fresh})
	}
	for _, row := range rows {
		w := weekOf(c.store.AttackAt(int(row)).Start())
		if w != curWeek {
			flush()
			curWeek = w
		}
		for _, id := range ix.RefsRow(int(row)) {
			if stamp[id] == int32(w+1) {
				continue
			}
			stamp[id] = int32(w + 1)
			cid := ix.CountryID(id)
			if cid < 0 {
				continue
			}
			if count[cid] == 0 {
				touched = append(touched, cid)
			}
			count[cid]++
		}
	}
	flush()
	return out, nil
}
