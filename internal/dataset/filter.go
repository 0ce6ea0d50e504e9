package dataset

import (
	"fmt"
	"time"
)

// Filter selects a sub-workload. Zero-valued fields select everything.
type Filter struct {
	// Families restricts attacks to these families.
	Families []Family
	// Categories restricts attacks to these protocol categories.
	Categories []Category
	// From/To restrict attacks by start time to [From, To).
	From time.Time
	To   time.Time
	// TargetCountry restricts to one victim country (ISO code).
	TargetCountry string
	// MinMagnitude drops attacks with fewer source IPs.
	MinMagnitude int
}

// match reports whether the attack passes the filter.
func (f *Filter) match(a *Attack) bool {
	if len(f.Families) > 0 {
		ok := false
		for _, fam := range f.Families {
			if a.Family == fam {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Categories) > 0 {
		ok := false
		for _, c := range f.Categories {
			if a.Category == c {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if !f.From.IsZero() && a.Start.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !a.Start.Before(f.To) {
		return false
	}
	if f.TargetCountry != "" && a.TargetCountry != f.TargetCountry {
		return false
	}
	if f.MinMagnitude > 0 && a.Magnitude() < f.MinMagnitude {
		return false
	}
	return true
}

// Subset builds a new Store containing the attacks that pass the filter,
// carrying over the botnet records and the Botlist entries of bots that
// still appear in at least one kept attack. It returns an error when the
// filter keeps nothing — an empty analysis is almost always a mistake.
func (s *Store) Subset(f Filter) (*Store, error) {
	recs := s.records()
	var kept []*Attack
	for _, a := range recs.attacks {
		if f.match(a) {
			kept = append(kept, a)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("dataset: filter keeps no attacks")
	}
	var botnets []*Botnet
	seenBotnets := make(map[BotnetID]bool)
	var bots []*Bot
	seenBots := make(map[string]bool)
	for _, a := range kept {
		if !seenBotnets[a.BotnetID] {
			seenBotnets[a.BotnetID] = true
			if b, ok := recs.botnets[a.BotnetID]; ok {
				botnets = append(botnets, b)
			}
		}
		for _, ip := range a.BotIPs {
			key := ip.String()
			if seenBots[key] {
				continue
			}
			seenBots[key] = true
			if b, ok := s.Bot(ip); ok {
				bots = append(bots, b)
			}
		}
	}
	return NewStore(kept, botnets, bots)
}
