package core

import (
	"sort"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/geo"
)

// CountryCount is one (country, attacks) row.
type CountryCount struct {
	CC    string
	Count int
}

// TargetCountryProfile is one family's row group in Table V.
type TargetCountryProfile struct {
	Family dataset.Family
	// Countries is the number of distinct victim countries.
	Countries int
	// Top lists the most-attacked countries, descending.
	Top []CountryCount
}

// Head returns the profile with Top cut to its first n countries (all of
// them when n <= 0). The cut shares p's backing array.
func (p TargetCountryProfile) Head(n int) TargetCountryProfile {
	if n > 0 && len(p.Top) > n {
		p.Top = p.Top[:n]
	}
	return p
}

// TargetCountries computes the Table V profile for one family; topN caps
// the Top list (the paper shows 5).
func TargetCountries(s *dataset.Store, f dataset.Family, topN int) TargetCountryProfile {
	counts := make(map[string]int)
	for _, row := range s.RowsByFamily(f) {
		counts[s.AttackAt(int(row)).TargetCountry()]++
	}
	out := TargetCountryProfile{Family: f, Countries: len(counts)}
	for cc, n := range counts {
		out.Top = append(out.Top, CountryCount{CC: cc, Count: n})
	}
	sort.Slice(out.Top, func(i, j int) bool {
		if out.Top[i].Count != out.Top[j].Count {
			return out.Top[i].Count > out.Top[j].Count
		}
		return out.Top[i].CC < out.Top[j].CC
	})
	return out.Head(topN)
}

// GlobalTargetCountries ranks victim countries across all families (the
// paper: USA 13,738, Russia 11,451, Germany 5,048, Ukraine 4,078,
// Netherlands 2,816).
func GlobalTargetCountries(s *dataset.Store, topN int) []CountryCount {
	counts := make(map[string]int)
	for i, n := 0, s.AttackRows(); i < n; i++ {
		counts[s.AttackAt(i).TargetCountry()]++
	}
	out := make([]CountryCount, 0, len(counts))
	for cc, n := range counts {
		out = append(out, CountryCount{CC: cc, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].CC < out[j].CC
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// OrgHotspot is one organization-level mark on the Fig 14 map: an attacked
// organization, its home coordinates, and its attack count.
type OrgHotspot struct {
	Org     string
	CC      string
	City    string
	Point   geo.LatLon
	Attacks int
}

// OrgHotspots computes the organization-level target analysis of Fig 14
// for one family inside a time window (the paper shows Pandora during
// February 2013). A zero from/to means the whole workload.
func OrgHotspots(s *dataset.Store, f dataset.Family, from, to time.Time) []OrgHotspot {
	type key struct {
		org string
		cc  string
	}
	agg := make(map[key]*OrgHotspot)
	for _, row := range s.RowsByFamily(f) {
		v := s.AttackAt(int(row))
		if !from.IsZero() && v.Start().Before(from) {
			continue
		}
		if !to.IsZero() && !v.Start().Before(to) {
			continue
		}
		k := key{org: v.TargetOrg(), cc: v.TargetCountry()}
		h := agg[k]
		if h == nil {
			h = &OrgHotspot{
				Org:   v.TargetOrg(),
				CC:    v.TargetCountry(),
				City:  v.TargetCity(),
				Point: geo.LatLon{Lat: v.TargetLat(), Lon: v.TargetLon()},
			}
			agg[k] = h
		}
		h.Attacks++
	}
	out := make([]OrgHotspot, 0, len(agg))
	for _, h := range agg {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attacks != out[j].Attacks {
			return out[i].Attacks > out[j].Attacks
		}
		if out[i].Org != out[j].Org {
			return out[i].Org < out[j].Org
		}
		return out[i].CC < out[j].CC
	})
	return out
}
