package botnet

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/geo"
	"botscope/internal/par"
)

// BurstSpec injects a one-day attack storm, reproducing the paper's
// busiest day (published.DailyMax attacks, nearly all Dirtjumper's) on
// 2012-08-30 against targets in a single Russian subnet.
type BurstSpec struct {
	// DayOffset is the day index inside the window (0 = first day).
	DayOffset int
	// Count is the number of burst attacks.
	Count int
	// TargetCC is the victims' country.
	TargetCC string
	// Targets is how many distinct victim IPs share the burst subnet.
	Targets int
}

// InterCollab stages cross-family coordination: Pairs attacks of Partner
// are re-aimed and re-timed to coincide with attacks of Initiator.
// MatchDuration distinguishes the paper's strict collaborations (duration
// difference within 30 minutes, Table VI) from merely concurrent launches
// (§III-B's Dirtjumper+Blackenergy pairs).
type InterCollab struct {
	Initiator     dataset.Family
	Partner       dataset.Family
	Pairs         int
	MatchDuration bool
	// StartFrac/EndFrac confine the coordination to a sub-window of the
	// observation period (both zero means the whole window). The paper's
	// Dirtjumper-Pandora campaign spanned about 16 of the 29 weeks.
	StartFrac float64
	EndFrac   float64
}

// Config parameterizes a simulation run.
type Config struct {
	Seed         int64
	Window       Window
	InterCollabs []InterCollab
}

// Output is a complete generated workload in the three Table I schemas.
type Output struct {
	Attacks []*dataset.Attack
	Botnets []*dataset.Botnet
	Bots    []*dataset.Bot
}

// Store wraps the output in an indexed dataset.Store.
func (o *Output) Store() (*dataset.Store, error) {
	return dataset.NewStore(o.Attacks, o.Botnets, o.Bots)
}

// Simulator generates workloads from family profiles.
type Simulator struct {
	cfg      Config
	db       *geo.DB
	profiles []*Profile
	bursts   map[dataset.Family]*BurstSpec
}

// New validates the configuration and builds a simulator.
func New(cfg Config, db *geo.DB, profiles []*Profile) (*Simulator, error) {
	if db == nil {
		return nil, fmt.Errorf("botnet: nil geo DB")
	}
	if !cfg.Window.End.After(cfg.Window.Start) {
		return nil, fmt.Errorf("botnet: empty simulation window")
	}
	if len(profiles) == 0 {
		return nil, fmt.Errorf("botnet: no profiles")
	}
	seen := make(map[dataset.Family]bool, len(profiles))
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if seen[p.Family] {
			return nil, fmt.Errorf("botnet: duplicate profile for %s", p.Family)
		}
		seen[p.Family] = true
	}
	for _, ic := range cfg.InterCollabs {
		if !seen[ic.Initiator] || !seen[ic.Partner] {
			return nil, fmt.Errorf("botnet: inter-collab references unknown family %s/%s", ic.Initiator, ic.Partner)
		}
		if ic.Pairs <= 0 {
			return nil, fmt.Errorf("botnet: inter-collab %s/%s with non-positive pairs", ic.Initiator, ic.Partner)
		}
	}
	return &Simulator{cfg: cfg, db: db, profiles: profiles, bursts: make(map[dataset.Family]*BurstSpec)}, nil
}

// SetBurst attaches a burst to a family before Run.
func (s *Simulator) SetBurst(f dataset.Family, b *BurstSpec) { s.bursts[f] = b }

// famState carries per-family generation results into the inter-family pass.
type famState struct {
	profile *Profile
	pool    *Pool
	singles []*dataset.Attack // plain attacks, safe to re-time
	rng     *rand.Rand
}

// famOutput is one family's generation result, produced independently of
// every other family.
type famOutput struct {
	state *famState
	res   *genResult
	bots  []*dataset.Bot
	err   error
}

// Run executes the simulation and returns the full workload. Families are
// generated concurrently on the par pool: each family's RNG stream
// depends only on the seed and the family name, each family draws bots
// from its own IP-dedup set, and each family's ID ranges are precomputed
// — gen.run emits exactly p.TotalAttacks() attacks and p.Botnets botnets,
// so the ranges a sequential pass would assign are known up front. Results
// merge in profile order, making the output byte-identical for every
// GOMAXPROCS.
//
// Bot IPs are deduplicated within a family, not across families; the rare
// cross-family duplicate collapses to the first family's record at merge
// time (the record fields are a pure function of the IP, so nothing is
// lost).
func (s *Simulator) Run() (*Output, error) {
	botnetBase := make([]dataset.BotnetID, len(s.profiles))
	ddosBase := make([]dataset.DDoSID, len(s.profiles))
	nextB, nextD := dataset.BotnetID(1), dataset.DDoSID(1)
	for i, p := range s.profiles {
		botnetBase[i], ddosBase[i] = nextB, nextD
		nextB += dataset.BotnetID(p.Botnets)
		nextD += dataset.DDoSID(p.TotalAttacks())
	}

	results := par.Map(len(s.profiles), func(i int) famOutput {
		p := s.profiles[i]
		rng := rand.New(rand.NewSource(s.cfg.Seed ^ familyHash(p.Family)))
		g := &familyGen{
			p:      p,
			rng:    rng,
			db:     s.db,
			window: s.cfg.Window,
			burst:  s.bursts[p.Family],
		}
		nextBotnetID, nextDDoSID := botnetBase[i], ddosBase[i]
		res, err := g.run(make(map[netip.Addr]bool), &nextBotnetID, &nextDDoSID)
		if err != nil {
			return famOutput{err: fmt.Errorf("botnet: generate %s: %w", p.Family, err)}
		}
		if got := nextBotnetID - botnetBase[i]; int(got) != p.Botnets {
			return famOutput{err: fmt.Errorf("botnet: %s emitted %d botnets, budget %d", p.Family, got, p.Botnets)}
		}
		if got := nextDDoSID - ddosBase[i]; int(got) != p.TotalAttacks() {
			return famOutput{err: fmt.Errorf("botnet: %s emitted %d attacks, budget %d", p.Family, got, p.TotalAttacks())}
		}
		return famOutput{
			state: &famState{profile: p, pool: g.pool, singles: res.singles, rng: rng},
			res:   res,
			bots:  g.pool.Bots(),
		}
	})

	out := &Output{}
	states := make(map[dataset.Family]*famState, len(s.profiles))
	seenBot := make(map[netip.Addr]bool)
	for i, fo := range results {
		if fo.err != nil {
			return nil, fo.err
		}
		out.Attacks = append(out.Attacks, fo.res.attacks...)
		out.Botnets = append(out.Botnets, fo.res.botnets...)
		for _, b := range fo.bots {
			if seenBot[b.IP] {
				continue
			}
			seenBot[b.IP] = true
			out.Bots = append(out.Bots, b)
		}
		states[s.profiles[i].Family] = fo.state
	}

	if err := s.applyInterCollabs(states); err != nil {
		return nil, err
	}

	sort.Slice(out.Attacks, func(i, j int) bool {
		if !out.Attacks[i].Start.Equal(out.Attacks[j].Start) {
			return out.Attacks[i].Start.Before(out.Attacks[j].Start)
		}
		return out.Attacks[i].ID < out.Attacks[j].ID
	})
	return out, nil
}

// applyInterCollabs re-times partner attacks onto initiator attacks.
func (s *Simulator) applyInterCollabs(states map[dataset.Family]*famState) error {
	for _, ic := range s.cfg.InterCollabs {
		init := states[ic.Initiator]
		part := states[ic.Partner]
		if len(init.singles) < ic.Pairs || len(part.singles) < ic.Pairs {
			return fmt.Errorf("botnet: inter-collab %s/%s needs %d pairs, have %d/%d singles",
				ic.Initiator, ic.Partner, ic.Pairs, len(init.singles), len(part.singles))
		}
		rng := part.rng
		// Candidate initiator attacks, confined to the campaign window.
		candidates := make([]int, 0, len(init.singles))
		winDur := s.cfg.Window.Duration().Seconds()
		for i, a := range init.singles {
			if ic.EndFrac > 0 {
				frac := a.Start.Sub(s.cfg.Window.Start).Seconds() / winDur
				if frac < ic.StartFrac || frac > ic.EndFrac {
					continue
				}
			}
			candidates = append(candidates, i)
		}
		if len(candidates) < ic.Pairs {
			// Small workloads can leave the campaign window short of
			// initiator attacks (heavy-tailed gaps punch multi-week holes
			// in a family's timeline); fall back to the whole stream
			// rather than failing the scenario.
			candidates = candidates[:0]
			for i := range init.singles {
				candidates = append(candidates, i)
			}
			if len(candidates) < ic.Pairs {
				return fmt.Errorf("botnet: inter-collab %s/%s has only %d initiator attacks, need %d",
					ic.Initiator, ic.Partner, len(candidates), ic.Pairs)
			}
		}
		candOrder := rng.Perm(len(candidates))[:ic.Pairs]
		ai := make([]int, ic.Pairs)
		for k, ci := range candOrder {
			ai[k] = candidates[ci]
		}
		bi := rng.Perm(len(part.singles))[:ic.Pairs]
		for k := 0; k < ic.Pairs; k++ {
			a := init.singles[ai[k]]
			b := part.singles[bi[k]]
			b.Start = a.Start
			if ic.MatchDuration {
				// Durations matched within the 30-minute collaboration
				// window (Table VI criterion).
				delta := time.Duration(rng.Intn(1200)-600) * time.Second
				d := a.Duration() + delta
				if d < time.Minute {
					d = time.Minute
				}
				b.End = b.Start.Add(d)
			} else {
				// Concurrent but deliberately mismatched in duration so the
				// pair registers in §III-B's concurrency statistics without
				// qualifying as a Table VI collaboration.
				d := a.Duration() + 35*time.Minute + time.Duration(rng.Intn(3600))*time.Second
				b.End = b.Start.Add(d)
			}
			b.TargetIP = a.TargetIP
			b.TargetASN = a.TargetASN
			b.TargetCountry = a.TargetCountry
			b.TargetCity = a.TargetCity
			b.TargetOrg = a.TargetOrg
			b.TargetLat = a.TargetLat
			b.TargetLon = a.TargetLon
			// Near-equal magnitudes, the paper's hallmark of coordination.
			size := len(a.BotIPs)
			anchor := part.profile.SourceCountries[0].CC
			if i := WeightedChoice(rng, sourceWeights(part.profile)); i >= 0 {
				anchor = part.profile.SourceCountries[i].CC
			}
			form := part.pool.Formation(anchor, size,
				rng.Float64() < part.profile.SymmetricProb,
				part.profile.DispersionTargetKm, b.Start)
			if len(form) > 0 {
				b.BotIPs = form
			}
		}
		// Remove the consumed singles from both sides so overlapping
		// InterCollab specs never re-time the same attack twice.
		init.singles = removeIndices(init.singles, ai)
		part.singles = removeIndices(part.singles, bi)
	}
	return nil
}

func removeIndices(xs []*dataset.Attack, idx []int) []*dataset.Attack {
	drop := make(map[int]bool, len(idx))
	for _, i := range idx {
		drop[i] = true
	}
	out := xs[:0]
	for i, x := range xs {
		if !drop[i] {
			out = append(out, x)
		}
	}
	return out
}

func sourceWeights(p *Profile) []float64 {
	w := make([]float64, len(p.SourceCountries))
	for i, sc := range p.SourceCountries {
		w[i] = sc.Weight
	}
	return w
}

func familyHash(f dataset.Family) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(f))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
