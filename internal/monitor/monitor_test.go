package monitor

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/synth"
)

var t0 = time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC)

// buildStore creates a small workload: two attacks by one family, with
// bots in two countries.
func buildStore(t *testing.T) *dataset.Store {
	t.Helper()
	bots := []*dataset.Bot{
		{IP: netip.MustParseAddr("9.0.0.1"), CountryCode: "RU", City: "Moscow", Org: "o1", ASN: 1},
		{IP: netip.MustParseAddr("9.0.0.2"), CountryCode: "RU", City: "Moscow", Org: "o1", ASN: 1},
		{IP: netip.MustParseAddr("9.0.0.3"), CountryCode: "UA", City: "Kyiv", Org: "o2", ASN: 2},
	}
	attacks := []*dataset.Attack{
		{
			ID: 1, BotnetID: 1, Family: dataset.Dirtjumper, Category: dataset.CategoryHTTP,
			TargetIP: netip.MustParseAddr("5.5.5.5"),
			Start:    t0, End: t0.Add(2 * time.Hour),
			BotIPs:        []netip.Addr{bots[0].IP, bots[1].IP},
			TargetCountry: "US", TargetCity: "x", TargetOrg: "y", TargetASN: 3,
		},
		{
			ID: 2, BotnetID: 1, Family: dataset.Dirtjumper, Category: dataset.CategoryHTTP,
			TargetIP: netip.MustParseAddr("5.5.5.5"),
			Start:    t0.Add(10 * 24 * time.Hour), End: t0.Add(10*24*time.Hour + time.Hour),
			BotIPs:        []netip.Addr{bots[0].IP, bots[2].IP},
			TargetCountry: "US", TargetCity: "x", TargetOrg: "y", TargetASN: 3,
		},
	}
	s, err := dataset.NewStore(attacks, nil, bots)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHourlyReportsWindowing(t *testing.T) {
	s := buildStore(t)
	c := NewCollector(s)
	reports, err := c.HourlyReports(dataset.Dirtjumper)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	// At hour 0 the first attack (2 bots) is active.
	r0 := reports[0]
	if r0.BotRefs != 2 {
		t.Errorf("hour 0 BotRefs = %d, want 2", r0.BotRefs)
	}
	if r0.ActiveAttacks != 1 {
		t.Errorf("hour 0 ActiveAttacks = %d, want 1", r0.ActiveAttacks)
	}
	if r0.CountryRefs["RU"] != 2 {
		t.Errorf("hour 0 RU refs = %d, want 2", r0.CountryRefs["RU"])
	}

	// At hour 10 (attack over, still inside 24h lookback) refs persist
	// but no attack is active.
	r10 := reports[10]
	if r10.BotRefs != 2 {
		t.Errorf("hour 10 BotRefs = %d, want 2 (24h cumulative)", r10.BotRefs)
	}
	if r10.ActiveAttacks != 0 {
		t.Errorf("hour 10 ActiveAttacks = %d, want 0", r10.ActiveAttacks)
	}

	// At hour 30 the lookback has expired.
	r30 := reports[30]
	if r30.BotRefs != 0 {
		t.Errorf("hour 30 BotRefs = %d, want 0", r30.BotRefs)
	}
	if len(r30.CountryRefs) != 0 {
		t.Errorf("hour 30 CountryRefs = %v, want empty", r30.CountryRefs)
	}

	// Day 10: the second attack brings one RU and one UA bot.
	r240 := reports[240]
	if r240.BotRefs != 2 || r240.CountryRefs["RU"] != 1 || r240.CountryRefs["UA"] != 1 {
		t.Errorf("hour 240 = %+v, want 1 RU + 1 UA ref", r240)
	}
}

func TestHourlyReportsErrors(t *testing.T) {
	s := buildStore(t)
	c := NewCollector(s)
	if _, err := c.HourlyReports(dataset.Optima); err == nil {
		t.Error("family without attacks succeeded")
	}
	c.Step = 0
	if _, err := c.HourlyReports(dataset.Dirtjumper); err == nil {
		t.Error("zero step succeeded")
	}

	empty, err := dataset.NewStore(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCollector(empty).HourlyReports(dataset.Dirtjumper); err == nil {
		t.Error("empty store succeeded")
	}
}

func TestWeeklySources(t *testing.T) {
	s := buildStore(t)
	c := NewCollector(s)
	weeks, err := c.WeeklySources(dataset.Dirtjumper)
	if err != nil {
		t.Fatal(err)
	}
	if len(weeks) != 2 {
		t.Fatalf("weeks = %d, want 2", len(weeks))
	}
	w0, w1 := weeks[0], weeks[1]
	if w0.Week != 0 || w1.Week != 1 {
		t.Errorf("week indices = %d, %d, want 0, 1", w0.Week, w1.Week)
	}
	// Week 0: 2 unique RU bots, RU is new.
	if w0.BotsByCountry["RU"] != 2 {
		t.Errorf("week 0 RU bots = %d, want 2", w0.BotsByCountry["RU"])
	}
	if len(w0.NewCountries) != 1 || w0.NewCountries[0] != "RU" {
		t.Errorf("week 0 new countries = %v, want [RU]", w0.NewCountries)
	}
	if existing, fresh := w0.Shifts(); fresh != 2 || existing != 0 {
		t.Errorf("week 0 shifts = new %d / existing %d, want 2/0", fresh, existing)
	}
	// Week 1: RU existing (1 bot), UA new (1 bot).
	if existing, fresh := w1.Shifts(); existing != 1 || fresh != 1 {
		t.Errorf("week 1 shifts = new %d / existing %d, want 1/1", fresh, existing)
	}
	if len(w1.NewCountries) != 1 || w1.NewCountries[0] != "UA" {
		t.Errorf("week 1 new countries = %v, want [UA]", w1.NewCountries)
	}
}

func TestWeeklySourcesUnknownFamily(t *testing.T) {
	s := buildStore(t)
	if _, err := NewCollector(s).WeeklySources(dataset.Pandora); err == nil {
		t.Error("family without attacks succeeded")
	}
}

func TestWeeklySourcesDedupWithinWeek(t *testing.T) {
	// A bot attacking twice in one week counts once.
	bot := &dataset.Bot{IP: netip.MustParseAddr("9.0.0.1"), CountryCode: "RU", City: "m", Org: "o", ASN: 1}
	mk := func(id dataset.DDoSID, offset time.Duration) *dataset.Attack {
		return &dataset.Attack{
			ID: id, BotnetID: 1, Family: dataset.Pandora, Category: dataset.CategoryHTTP,
			TargetIP: netip.MustParseAddr("5.5.5.5"),
			Start:    t0.Add(offset), End: t0.Add(offset + time.Hour),
			BotIPs:        []netip.Addr{bot.IP},
			TargetCountry: "US", TargetCity: "x", TargetOrg: "y", TargetASN: 3,
		}
	}
	s, err := dataset.NewStore([]*dataset.Attack{mk(1, 0), mk(2, 3*time.Hour)}, nil, []*dataset.Bot{bot})
	if err != nil {
		t.Fatal(err)
	}
	weeks, err := NewCollector(s).WeeklySources(dataset.Pandora)
	if err != nil {
		t.Fatal(err)
	}
	if weeks[0].BotsByCountry["RU"] != 1 {
		t.Errorf("RU bots = %d, want 1 (dedup)", weeks[0].BotsByCountry["RU"])
	}
}

// countryOf is the string-space lookup the kernels used per bot
// reference before they counted by interned id.
func countryOf(s *dataset.Store, id int32) (string, bool) {
	cid := s.BotDense().CountryID(id)
	if cid < 0 {
		return "", false
	}
	return s.Cols().Str(cid), true
}

// referenceWeeklySources is the map-per-week scan WeeklySources replaced.
func referenceWeeklySources(s *dataset.Store, family dataset.Family) []WeekStats {
	first, _, _ := s.TimeBounds()
	ix := s.BotDense()
	type weekBots struct {
		week int
		bots map[int32]bool
	}
	var weeks []weekBots
	for _, row := range s.RowsByFamily(family).All() {
		w := int(s.AttackAt(int(row)).Start().Sub(first).Hours() / (24 * 7))
		if len(weeks) == 0 || weeks[len(weeks)-1].week != w {
			weeks = append(weeks, weekBots{w, map[int32]bool{}})
		}
		for _, id := range ix.RefsRow(int(row)).All() {
			weeks[len(weeks)-1].bots[id] = true
		}
	}
	seen := map[string]bool{}
	var out []WeekStats
	for _, wb := range weeks {
		ws := WeekStats{Week: wb.week, BotsByCountry: map[string]int{}}
		for id := range wb.bots {
			if cc, ok := countryOf(s, id); ok {
				ws.BotsByCountry[cc]++
			}
		}
		for cc := range ws.BotsByCountry {
			if !seen[cc] {
				ws.NewCountries = append(ws.NewCountries, cc)
			}
		}
		sort.Strings(ws.NewCountries)
		for _, cc := range ws.NewCountries {
			seen[cc] = true
		}
		out = append(out, ws)
	}
	return out
}

// referenceHourlyReports is the map-per-attack sweep HourlyReports
// replaced, at the collector's cadence.
func referenceHourlyReports(c *Collector, family dataset.Family) []HourlyReport {
	s := c.store
	first, last, _ := s.TimeBounds()
	steps := int(last.Add(c.Lookback).Sub(first)/c.Step) + 1
	type delta struct {
		refs    int
		country map[string]int
	}
	add, sub := make([]delta, steps+1), make([]delta, steps+1)
	activeAdd, activeSub := make([]int, steps+1), make([]int, steps+1)
	stepIdx := func(t time.Time) int {
		return max(0, min(steps, int(t.Sub(first)/c.Step)))
	}
	merge := func(d *delta, refs int, countries map[string]int) {
		d.refs += refs
		if d.country == nil {
			d.country = map[string]int{}
		}
		for cc, n := range countries {
			d.country[cc] += n
		}
	}
	ix := s.BotDense()
	for _, row := range s.RowsByFamily(family).All() {
		v := s.AttackAt(int(row))
		countries := map[string]int{}
		refs := 0
		for _, id := range ix.RefsRow(int(row)).All() {
			refs++
			if cc, ok := countryOf(s, id); ok {
				countries[cc]++
			}
		}
		merge(&add[stepIdx(v.Start())], refs, countries)
		merge(&sub[stepIdx(v.End().Add(c.Lookback))], refs, countries)
		activeAdd[stepIdx(v.Start())]++
		activeSub[stepIdx(v.End())]++
	}
	var out []HourlyReport
	curRefs, curActive, cur := 0, 0, map[string]int{}
	for i := 0; i < steps; i++ {
		curRefs += add[i].refs - sub[i].refs
		for cc, n := range add[i].country {
			cur[cc] += n
		}
		for cc, n := range sub[i].country {
			cur[cc] -= n
		}
		curActive += activeAdd[i] - activeSub[i]
		snapshot := map[string]int{}
		for cc, n := range cur {
			if n > 0 {
				snapshot[cc] = n
			}
		}
		out = append(out, HourlyReport{
			Family: family, Time: first.Add(time.Duration(i) * c.Step),
			ActiveAttacks: curActive, BotRefs: curRefs, CountryRefs: snapshot,
		})
	}
	return out
}

// unresolvedStore mixes Botlist-resolved bots with ones the Botlist never
// saw, some repeating inside a week and across weeks, and one resolved
// bot whose country code is empty.
func unresolvedStore(t *testing.T) *dataset.Store {
	t.Helper()
	ip := netip.MustParseAddr
	bots := []*dataset.Bot{
		{IP: ip("9.0.0.1"), CountryCode: "RU", City: "Moscow", Org: "o1", ASN: 1},
		{IP: ip("9.0.0.2"), CountryCode: "UA", City: "Kyiv", Org: "o2", ASN: 2},
		{IP: ip("9.0.0.3"), CountryCode: "", City: "", Org: "o3", ASN: 3},
		{IP: ip("9.0.0.4"), CountryCode: "BR", City: "Rio", Org: "o4", ASN: 4},
	}
	mk := func(id dataset.DDoSID, f dataset.Family, offset time.Duration, ips ...string) *dataset.Attack {
		a := &dataset.Attack{
			ID: id, BotnetID: 1, Family: f, Category: dataset.CategoryHTTP,
			TargetIP: ip("5.5.5.5"),
			Start:    t0.Add(offset), End: t0.Add(offset + 90*time.Minute),
			TargetCountry: "US", TargetCity: "x", TargetOrg: "y", TargetASN: 3,
		}
		for _, s := range ips {
			a.BotIPs = append(a.BotIPs, ip(s))
		}
		return a
	}
	day := 24 * time.Hour
	s, err := dataset.NewStore([]*dataset.Attack{
		mk(1, dataset.Pandora, 0, "9.0.0.1", "8.0.0.1", "9.0.0.3"),
		mk(2, dataset.Pandora, 2*time.Hour, "8.0.0.1", "9.0.0.1", "8.0.0.2"),
		mk(3, dataset.Dirtjumper, day, "9.0.0.4", "8.0.0.1"),
		mk(4, dataset.Pandora, 8*day, "8.0.0.1", "9.0.0.2", "9.0.0.1"),
		mk(5, dataset.Pandora, 8*day+time.Hour, "8.0.0.3"),
		mk(6, dataset.Pandora, 30*day, "9.0.0.4", "9.0.0.3", "8.0.0.2"),
	}, nil, bots)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestKernelsMatchReference pins the id-space WeeklySources and
// HourlyReports against the string-map scans they replaced, for every
// family with attacks, on the synth workload and on a store where some
// bots never resolve.
func TestKernelsMatchReference(t *testing.T) {
	synthStore, err := synth.GenerateStore(synth.Config{Seed: 99, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*dataset.Store{"synth": synthStore, "unresolved": unresolvedStore(t)} {
		c := NewCollector(s)
		for _, f := range s.Families().All() {
			weeks, err := c.WeeklySources(f)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceWeeklySources(s, f); !reflect.DeepEqual(weeks, want) {
				t.Errorf("%s/%s: WeeklySources differs from the reference\n got %+v\nwant %+v", name, f, weeks, want)
			}
			reports, err := c.HourlyReports(f)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceHourlyReports(c, f)
			if len(reports) != len(want) {
				t.Fatalf("%s/%s: %d hourly reports, reference %d", name, f, len(reports), len(want))
			}
			for i := range reports {
				if !reflect.DeepEqual(reports[i], want[i]) {
					t.Fatalf("%s/%s: hourly report %d = %+v, reference %+v", name, f, i, reports[i], want[i])
				}
			}
		}
	}
}
