package monitor

import (
	"fmt"
	"sort"
	"time"

	"botscope/internal/dataset"
)

// BotnetActivity summarizes one botnet generation's observed behaviour:
// the paper marks generations by binary hashes and tracks their activity
// through the monitoring feed.
type BotnetActivity struct {
	ID     dataset.BotnetID
	Family dataset.Family
	// Hash is the generation fingerprint from the Botnetlist record, when
	// available.
	Hash string
	// Attacks is the number of attacks attributed to the generation.
	Attacks int
	// FirstAttack/LastAttack bound its observed attack activity.
	FirstAttack time.Time
	LastAttack  time.Time
	// UniqueTargets is the number of distinct victims.
	UniqueTargets int
	// PeakMagnitude is the largest single-attack source count.
	PeakMagnitude int
}

// BotnetActivities profiles every attack-launching botnet of a family,
// ordered by attack count descending. The error is non-nil when the
// family launched nothing.
func (c *Collector) BotnetActivities(family dataset.Family) ([]BotnetActivity, error) {
	rows := c.store.RowsByFamily(family)
	if len(rows) == 0 {
		return nil, fmt.Errorf("monitor: family %s has no attacks", family)
	}
	acc := make(map[dataset.BotnetID]*BotnetActivity)
	targets := make(map[dataset.BotnetID]map[string]bool)
	for _, row := range rows {
		v := c.store.AttackAt(int(row))
		id := v.BotnetID()
		start := v.Start()
		act := acc[id]
		if act == nil {
			act = &BotnetActivity{
				ID:          id,
				Family:      family,
				FirstAttack: start,
				LastAttack:  start,
			}
			if rec, ok := c.store.BotnetByID(id); ok {
				act.Hash = rec.Hash()
			}
			acc[id] = act
			targets[id] = make(map[string]bool)
		}
		act.Attacks++
		if start.Before(act.FirstAttack) {
			act.FirstAttack = start
		}
		if start.After(act.LastAttack) {
			act.LastAttack = start
		}
		if m := v.Magnitude(); m > act.PeakMagnitude {
			act.PeakMagnitude = m
		}
		targets[id][v.TargetIP().String()] = true
	}
	out := make([]BotnetActivity, 0, len(acc))
	for id, act := range acc {
		act.UniqueTargets = len(targets[id])
		out = append(out, *act)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attacks != out[j].Attacks {
			return out[i].Attacks > out[j].Attacks
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

// GenerationChurn measures how a family's attack volume is distributed
// over its generations: the fraction launched by the single most active
// generation, and the number of generations covering 90% of attacks. The
// paper notes a few generations dominate each family.
type GenerationChurn struct {
	Family      dataset.Family
	Generations int
	// TopShare is the most active generation's share of the family's
	// attacks.
	TopShare float64
	// P90Generations is how many generations it takes to cover 90% of
	// the family's attacks.
	P90Generations int
}

// Churn computes generation concentration for a family.
func (c *Collector) Churn(family dataset.Family) (GenerationChurn, error) {
	acts, err := c.BotnetActivities(family)
	if err != nil {
		return GenerationChurn{}, err
	}
	total := 0
	for _, a := range acts {
		total += a.Attacks
	}
	out := GenerationChurn{Family: family, Generations: len(acts)}
	if total == 0 {
		return out, nil
	}
	out.TopShare = float64(acts[0].Attacks) / float64(total)
	cum := 0
	for i, a := range acts {
		cum += a.Attacks
		if float64(cum) >= 0.9*float64(total) {
			out.P90Generations = i + 1
			break
		}
	}
	return out, nil
}
