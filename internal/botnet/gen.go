package botnet

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/geo"
)

// victim is one prepared target with its resolved geolocation.
type victim struct {
	ip  netip.Addr
	loc geo.Location
}

// targetCountry is one victim country's weighted victim pool.
type targetCountry struct {
	victims       []victim
	victimWeights []float64
}

// eventKind classifies one scheduled emission in a family's stream.
type eventKind int

const (
	evSingle eventKind = iota + 1
	evGroup            // intra-family collaboration group
	evChain            // multistage consecutive chain
)

// event is one planned emission; size is the group or chain length.
type event struct {
	kind eventKind
	size int
}

// familyGen generates one family's attack stream.
type familyGen struct {
	p      *Profile
	rng    *rand.Rand
	db     *geo.DB
	window Window
	burst  *BurstSpec

	pool          *Pool
	targets       []targetCountry
	countryW      []float64
	catRemaining  map[dataset.Category]int
	catOrder      []dataset.Category
	botnets       []*dataset.Botnet
	botnetWeights []float64
	newCountries  []string
	lastWeek      int

	// catWeights and permBuf are per-draw scratch reused across attacks;
	// they replace allocations only and never alter the RNG stream.
	catWeights []float64
	permBuf    []int

	// symInit/symState implement the persistent symmetric/asymmetric
	// formation regime (see nextSymmetric). curAnchor persists the source
	// anchor country across a regime run so consecutive attacks share
	// recruitment geography (tight dispersion runs, as in Figs 10-13).
	symInit   bool
	symState  bool
	curAnchor string
	flipRate  float64
}

// genResult is the per-family output.
type genResult struct {
	attacks []*dataset.Attack
	botnets []*dataset.Botnet
	singles []*dataset.Attack
}

func (g *familyGen) run(used map[netip.Addr]bool, nextBotnetID *dataset.BotnetID, nextDDoSID *dataset.DDoSID) (*genResult, error) {
	p := g.p
	res := &genResult{}

	// Botnet generations, Zipf-weighted so a few dominate each family.
	for i := 0; i < p.Botnets; i++ {
		hash := make([]byte, 16)
		g.rng.Read(hash)
		b := &dataset.Botnet{
			ID:           *nextBotnetID,
			Family:       p.Family,
			Hash:         hex.EncodeToString(hash),
			ControllerIP: g.db.SampleIP(g.rng),
			FirstSeen:    g.window.Start,
			LastSeen:     g.window.End,
		}
		*nextBotnetID++
		g.botnets = append(g.botnets, b)
	}
	g.botnetWeights = ZipfWeights(len(g.botnets), 1.1)
	res.botnets = g.botnets

	pool, err := NewPool(g.rng, g.db, p, p.BotPoolSize, used)
	if err != nil {
		return nil, err
	}
	g.pool = pool

	if err := g.buildTargets(); err != nil {
		return nil, err
	}

	// Regime-flip rate: campaigns persist, but every family must see a
	// handful of regime switches within its own stream so train/test
	// splits of its dispersion series cover both regimes.
	pSym := p.SymmetricProb
	if pSym > 0 && pSym < 1 {
		wantSwitches := 12.0
		g.flipRate = wantSwitches / (float64(p.TotalAttacks())*2*pSym*(1-pSym) + 1)
		if g.flipRate < 0.015 {
			g.flipRate = 0.015
		}
		if g.flipRate > 0.5 {
			g.flipRate = 0.5
		}
	} else {
		g.flipRate = 0.015
	}

	g.catRemaining = make(map[dataset.Category]int, len(p.Protocols))
	for _, ps := range p.Protocols {
		g.catRemaining[ps.Category] += ps.Count
		g.catOrder = append(g.catOrder, ps.Category)
	}

	// --- Plan the event stream ---------------------------------------
	total := p.TotalAttacks()
	burstCount := 0
	if g.burst != nil {
		burstCount = g.burst.Count
		if burstCount > total/2 {
			burstCount = total / 2
		}
	}
	remaining := total - burstCount

	var events []event
	consumed := 0
	for i := 0; i < p.ConsecutiveChains; i++ {
		length := g.chainLength()
		if i == 0 && p.RecordChainLength > 1 {
			// The record chain (Ddoser's 22 strikes) is emitted whenever
			// the family can afford it at all; ordinary chains stay within
			// half the budget.
			length = p.RecordChainLength
			if length <= remaining*3/4 {
				events = append(events, event{kind: evChain, size: length})
				consumed += length
			}
			continue
		}
		if consumed+length > remaining/2 {
			break
		}
		events = append(events, event{kind: evChain, size: length})
		consumed += length
	}
	for i := 0; i < p.IntraCollab; i++ {
		size := 2
		if g.rng.Float64() < 0.19 { // mean group size published.MeanBotnets
			size = 3
		}
		if consumed+size > remaining*3/4 {
			break
		}
		events = append(events, event{kind: evGroup, size: size})
		consumed += size
	}
	for i := 0; i < remaining-consumed; i++ {
		events = append(events, event{kind: evSingle, size: 1})
	}
	g.rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

	// --- Gap schedule --------------------------------------------------
	winDur := g.window.Duration().Seconds()
	activeStart := g.window.Start.Add(time.Duration(p.ActiveStartFrac * winDur * float64(time.Second)))
	activeSpan := (p.ActiveEndFrac - p.ActiveStartFrac) * winDur

	gaps := make([]float64, len(events))
	var rawSum float64
	for i := range gaps {
		gaps[i] = p.Intervals.Sample(g.rng)
		rawSum += gaps[i]
	}
	if rawSum > 0 {
		// Fit the stream into the activity window while preserving the
		// zero-gap (simultaneous) share exactly and the relative shape of
		// the nonzero gaps. Re-clamp to the model floor afterwards: some
		// families (Aldibot, Optima) never strike twice within 60 s, and
		// rescaling must not break that invariant.
		scale := activeSpan * 0.92 / rawSum
		for i := range gaps {
			gaps[i] *= scale
			if gaps[i] > 0 && gaps[i] < p.Intervals.MinSec {
				gaps[i] = p.Intervals.MinSec
			}
		}
	}

	// --- Emission -------------------------------------------------------
	t := activeStart
	for i, ev := range events {
		t = t.Add(time.Duration(gaps[i] * float64(time.Second)))
		if t.After(g.window.End) {
			t = g.window.End.Add(-time.Minute)
		}
		g.advanceWeeks(t)
		switch ev.kind {
		case evSingle:
			a := g.emitAttack(t, nextDDoSID, g.pickBotnet(), g.drawDuration(), -1)
			res.attacks = append(res.attacks, a)
			res.singles = append(res.singles, a)
		case evGroup:
			group := g.emitGroup(t, ev.size, nextDDoSID)
			res.attacks = append(res.attacks, group...)
		case evChain:
			chain := g.emitChain(t, ev.size, nextDDoSID)
			res.attacks = append(res.attacks, chain...)
		}
	}

	if g.burst != nil && burstCount > 0 {
		burst, burstErr := g.emitBurst(burstCount, nextDDoSID)
		if burstErr != nil {
			return nil, burstErr
		}
		res.attacks = append(res.attacks, burst...)
	}
	return res, nil
}

// chainLength samples a multistage chain length around the profile mean.
func (g *familyGen) chainLength() int {
	mean := g.p.ChainLengthMean
	if mean < 2 {
		mean = 2
	}
	// Geometric around the mean, floor 2.
	length := 2
	for float64(length) < mean*4 && g.rng.Float64() < 1-1/(mean-1+1e-9) {
		length++
	}
	if length < 2 {
		length = 2
	}
	return length
}

// buildTargets prepares the per-country victim pools.
func (g *familyGen) buildTargets() error {
	p := g.p
	base := append([]CountryShare(nil), p.TargetCountries...)
	minW := base[0].Weight
	for _, cs := range base {
		if cs.Weight < minW {
			minW = cs.Weight
		}
	}
	if minW <= 0 {
		minW = 1
	}
	// Top the list up with extra atlas countries until the family's
	// country diversity matches its Table V count.
	if p.TargetCountryCount > len(base) {
		present := make(map[string]bool, len(base))
		for _, cs := range base {
			present[cs.CC] = true
		}
		all := g.db.Countries().Countries()
		order := g.rng.Perm(len(all))
		for _, i := range order {
			if len(base) >= p.TargetCountryCount {
				break
			}
			cc := all[i].Code
			if present[cc] {
				continue
			}
			present[cc] = true
			base = append(base, CountryShare{
				CC:     cc,
				Weight: minW / float64(2+len(base)-len(p.TargetCountries)),
			})
		}
	}

	var totalW float64
	for _, cs := range base {
		totalW += cs.Weight
	}
	for _, cs := range base {
		n := int(float64(p.TargetPoolSize) * cs.Weight / totalW)
		if n < 1 {
			n = 1
		}
		var tc targetCountry
		for v := 0; v < n; v++ {
			ip, ok := g.db.SampleInfrastructureIP(g.rng, cs.CC)
			if !ok {
				return fmt.Errorf("botnet: no infrastructure blocks in %s", cs.CC)
			}
			loc, ok := g.db.Lookup(ip)
			if !ok {
				return fmt.Errorf("botnet: unresolvable victim IP %v", ip)
			}
			tc.victims = append(tc.victims, victim{ip: ip, loc: loc})
		}
		tc.victimWeights = ZipfWeights(len(tc.victims), p.TargetZipf)
		g.targets = append(g.targets, tc)
		g.countryW = append(g.countryW, cs.Weight)
	}
	return nil
}

// pickTarget draws a victim: country by Table V weights, then a
// Zipf-concentrated victim within the country.
func (g *familyGen) pickTarget() victim {
	ci := WeightedChoice(g.rng, g.countryW)
	if ci < 0 {
		ci = 0
	}
	tc := g.targets[ci]
	vi := WeightedChoice(g.rng, tc.victimWeights)
	if vi < 0 {
		vi = 0
	}
	return tc.victims[vi]
}

// pickBotnet draws a generation, Zipf-weighted.
func (g *familyGen) pickBotnet() dataset.BotnetID {
	i := WeightedChoice(g.rng, g.botnetWeights)
	if i < 0 {
		i = 0
	}
	return g.botnets[i].ID
}

// drawCategory consumes one unit of the per-protocol budget, keeping the
// final per-category counts exactly at the Table II calibration.
func (g *familyGen) drawCategory() dataset.Category {
	weights := g.catWeights[:0]
	for _, c := range g.catOrder {
		weights = append(weights, float64(g.catRemaining[c]))
	}
	g.catWeights = weights
	i := WeightedChoice(g.rng, weights)
	if i < 0 {
		// Budget exhausted (possible only through rounding drift); fall
		// back to the family's first protocol.
		return g.catOrder[0]
	}
	cat := g.catOrder[i]
	g.catRemaining[cat]--
	return cat
}

func (g *familyGen) drawDuration() time.Duration {
	sec := LogNormal(g.rng, g.p.DurationMedianSec, g.p.DurationSigma, g.p.DurationMaxSec)
	if sec < 1 {
		sec = 1
	}
	return time.Duration(sec * float64(time.Second))
}

func (g *familyGen) drawMagnitude() int {
	m := int(LogNormal(g.rng, g.p.MagnitudeMedian, g.p.MagnitudeSigma, g.p.MagnitudeMax))
	if m < 2 {
		m = 2
	}
	return m
}

// nextSymmetric advances the formation-regime Markov chain. Botmaster
// recruitment strategy persists over consecutive attacks (a campaign keeps
// its formation style for a stretch), so the symmetric/asymmetric choice is
// a two-state chain whose stationary distribution equals SymmetricProb.
// The persistence is what makes the per-family dispersion series
// predictable with ARIMA (Figs 12-13) instead of white noise.
func (g *familyGen) nextSymmetric() bool {
	p := g.p.SymmetricProb
	if !g.symInit {
		g.symInit = true
		g.symState = g.rng.Float64() < p
		g.curAnchor = g.pickAnchorCountry()
		return g.symState
	}
	prev := g.symState
	// Transition rates scaled by flipRate keep the stationary probability
	// at p while giving campaign-length runs in each regime.
	if g.symState {
		if g.rng.Float64() < g.flipRate*(1-p) {
			g.symState = false
		}
	} else {
		if g.rng.Float64() < g.flipRate*p {
			g.symState = true
		}
	}
	if g.symState != prev {
		// New campaign: re-anchor the recruitment geography.
		g.curAnchor = g.pickAnchorCountry()
	}
	return g.symState
}

// pickAnchorCountry draws a fresh source-country anchor: mostly from the
// family's base affinity set, occasionally a newly recruited country.
func (g *familyGen) pickAnchorCountry() string {
	if len(g.newCountries) > 0 && g.rng.Float64() < 0.03 {
		return g.newCountries[g.rng.Intn(len(g.newCountries))]
	}
	i := WeightedChoice(g.rng, sourceWeights(g.p))
	if i < 0 {
		i = 0
	}
	return g.p.SourceCountries[i].CC
}

// advanceWeeks recruits new countries as simulated weeks pass (Fig 8's
// shift pattern: rare expansions into fresh countries).
func (g *familyGen) advanceWeeks(t time.Time) {
	week := int(t.Sub(g.window.Start).Hours() / (24 * 7))
	for g.lastWeek < week {
		g.lastWeek++
		if g.rng.Float64() < g.p.NewCountryPerWeek {
			n := g.p.BotPoolSize / 200
			if n < 5 {
				n = 5
			}
			if cc, ok := g.pool.RecruitNewCountry(n); ok {
				g.newCountries = append(g.newCountries, cc)
			}
		}
	}
}

// emitAttack creates one attack record. magnitude < 0 means "draw one".
func (g *familyGen) emitAttack(start time.Time, nextID *dataset.DDoSID, botnet dataset.BotnetID, dur time.Duration, magnitude int) *dataset.Attack {
	v := g.pickTarget()
	return g.emitAttackOn(start, nextID, botnet, dur, magnitude, v)
}

func (g *familyGen) emitAttackOn(start time.Time, nextID *dataset.DDoSID, botnet dataset.BotnetID, dur time.Duration, magnitude int, v victim) *dataset.Attack {
	if magnitude < 0 {
		magnitude = g.drawMagnitude()
	}
	symmetric := g.nextSymmetric()
	form := g.pool.Formation(g.curAnchor, magnitude, symmetric, g.p.DispersionTargetKm, start)
	if len(form) == 0 {
		// A pool can never be empty after NewPool, but guard anyway.
		form = []netip.Addr{g.pool.Bots()[0].IP}
	}
	a := &dataset.Attack{
		ID:            *nextID,
		BotnetID:      botnet,
		Family:        g.p.Family,
		Category:      g.drawCategory(),
		TargetIP:      v.ip,
		Start:         start,
		End:           start.Add(dur),
		BotIPs:        form,
		TargetASN:     v.loc.ASN,
		TargetCountry: v.loc.CountryCode,
		TargetCity:    v.loc.City,
		TargetOrg:     v.loc.Org,
		TargetLat:     v.loc.Point.Lat,
		TargetLon:     v.loc.Point.Lon,
	}
	*nextID++
	return a
}

// emitGroup stages an intra-family collaboration: size attacks by distinct
// botnets against one target, launched simultaneously with matched
// durations and equal magnitudes (Fig 15's equal-height bars).
func (g *familyGen) emitGroup(start time.Time, size int, nextID *dataset.DDoSID) []*dataset.Attack {
	v := g.pickTarget()
	baseDur := g.drawDuration()
	magnitude := g.drawMagnitude()
	ids := g.distinctBotnets(size)
	out := make([]*dataset.Attack, 0, size)
	for i := 0; i < size; i++ {
		dur := baseDur + time.Duration(g.rng.Intn(1200)-600)*time.Second
		if dur < time.Minute {
			dur = time.Minute
		}
		out = append(out, g.emitAttackOn(start, nextID, ids[i%len(ids)], dur, magnitude, v))
	}
	return out
}

// pickQuietTarget draws a victim from the cold tail of a country's Zipf
// pool and removes it from the pool: chains get exclusive victims, so no
// unrelated attack interleaves with (and splits) a multistage campaign.
func (g *familyGen) pickQuietTarget() victim {
	ci := WeightedChoice(g.rng, g.countryW)
	if ci < 0 {
		ci = 0
	}
	tc := &g.targets[ci]
	n := len(tc.victims)
	if n == 1 {
		return tc.victims[0]
	}
	span := 3
	if span > n {
		span = n
	}
	idx := n - 1 - g.rng.Intn(span)
	v := tc.victims[idx]
	tc.victims = append(tc.victims[:idx], tc.victims[idx+1:]...)
	tc.victimWeights = ZipfWeights(len(tc.victims), g.p.TargetZipf)
	return v
}

// emitChain stages a multistage attack: back-to-back strikes on one target
// by one botnet, with gaps matching Fig 17 (about 65% within 10 s).
func (g *familyGen) emitChain(start time.Time, size int, nextID *dataset.DDoSID) []*dataset.Attack {
	v := g.pickQuietTarget()
	botnet := g.pickBotnet()
	magnitude := g.drawMagnitude()
	out := make([]*dataset.Attack, 0, size)
	t := start
	for i := 0; i < size; i++ {
		// Chain strikes are short bursts; 22 of them fit in 18 minutes in
		// the paper's record chain.
		durSec := LogNormal(g.rng, 40, 0.7, 300)
		dur := time.Duration(durSec * float64(time.Second))
		out = append(out, g.emitAttackOn(t, nextID, botnet, dur, magnitude, v))
		var gapSec float64
		switch u := g.rng.Float64(); {
		case u < 0.65:
			gapSec = g.rng.Float64() * 10
		case u < 0.80:
			gapSec = 10 + g.rng.Float64()*20
		default:
			gapSec = 30 + g.rng.Float64()*30
		}
		t = t.Add(dur + time.Duration(gapSec*float64(time.Second)))
	}
	return out
}

// distinctBotnets returns up to n distinct generation IDs.
func (g *familyGen) distinctBotnets(n int) []dataset.BotnetID {
	if n > len(g.botnets) {
		n = len(g.botnets)
	}
	// Inline rand.Perm into a reusable buffer. The loop mirrors the
	// standard library exactly — including the i=0 iteration, whose
	// Intn(1) call consumes a draw — so the RNG stream and the resulting
	// permutation are unchanged.
	if cap(g.permBuf) < len(g.botnets) {
		g.permBuf = make([]int, len(g.botnets))
	}
	m := g.permBuf[:len(g.botnets)]
	for i := 0; i < len(m); i++ {
		j := g.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	out := make([]dataset.BotnetID, n)
	for i, j := range m[:n] {
		out[i] = g.botnets[j].ID
	}
	return out
}

// emitBurst floods one subnet for a day, reproducing the Aug 30 2012 peak.
func (g *familyGen) emitBurst(count int, nextID *dataset.DDoSID) ([]*dataset.Attack, error) {
	spec := g.burst
	dayStart := g.window.Start.Add(time.Duration(spec.DayOffset) * 24 * time.Hour)
	seed, ok := g.db.SampleInfrastructureIP(g.rng, spec.TargetCC)
	if !ok {
		return nil, fmt.Errorf("botnet: burst country %s has no infrastructure", spec.TargetCC)
	}
	raw := seed.As4()
	nTargets := spec.Targets
	if nTargets < 1 {
		nTargets = 8
	}
	victims := make([]victim, 0, nTargets)
	for i := 0; i < nTargets; i++ {
		// Same /16 block: same organization, city, and AS — the paper's
		// "targets located in the same subnet in Russia".
		ip := netip.AddrFrom4([4]byte{raw[0], raw[1], byte(g.rng.Intn(256)), byte(1 + g.rng.Intn(255))})
		loc, lok := g.db.Lookup(ip)
		if !lok {
			continue
		}
		victims = append(victims, victim{ip: ip, loc: loc})
	}
	if len(victims) == 0 {
		return nil, fmt.Errorf("botnet: burst produced no resolvable victims")
	}
	ids := g.distinctBotnets(3)
	out := make([]*dataset.Attack, 0, count)
	daySec := 24 * 3600.0
	for i := 0; i < count; i++ {
		offset := time.Duration(daySec / float64(count) * float64(i) * float64(time.Second))
		start := dayStart.Add(offset)
		dur := g.drawDuration()
		if dur > 4*time.Hour {
			dur = 4 * time.Hour
		}
		v := victims[g.rng.Intn(len(victims))]
		out = append(out, g.emitAttackOn(start, nextID, ids[g.rng.Intn(len(ids))], dur, -1, v))
	}
	return out, nil
}
