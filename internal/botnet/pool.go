package botnet

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/geo"
)

// cityCluster is the portion of a family's bot population homed in one
// city. Formations are drawn cluster-first so that the geolocation
// dispersion of an attack is controllable.
type cityCluster struct {
	key     string // cc + "/" + city
	cc      string
	center  geo.LatLon
	centerC geo.CachedPoint // center with precomputed trig, refreshed with it
	bots    []*dataset.Bot
}

// Pool is one family's bot population: bots grouped into city clusters,
// with weekly recruitment of new countries (the shift pattern of Fig 8).
type Pool struct {
	family    dataset.Family
	clusters  []*cityCluster
	byCountry map[string][]*cityCluster
	countries []string // recruitment order, base countries first
	rng       *rand.Rand
	db        *geo.DB
	used      map[netip.Addr]bool // per-family dedup set, owned by this pool
	bots      []*dataset.Bot

	// Per-formation scratch, reused across Formation calls. A pool emits
	// one formation per attack — hundreds of thousands per family at full
	// scale — so the per-call weight/candidate/key slices and the distinct-
	// sampling dedup set are owned by the pool and recycled. None of these
	// touch the RNG stream: they replace allocations, not draws.
	weightBuf []float64
	keyBuf    []float64
	idxBuf    []int
	candBuf   []*dataset.Bot
	pickBuf   []*dataset.Bot
	stamp     []int64 // sampleInto dedup stamps, indexed by cluster position
	epoch     int64
}

// NewPool places size bots into the profile's source countries,
// proportionally to their weights. used deduplicates IPs within the pool's
// family; the simulator passes each family its own set so families can
// generate concurrently (cross-family duplicates collapse at merge time).
func NewPool(rng *rand.Rand, db *geo.DB, p *Profile, size int, used map[netip.Addr]bool) (*Pool, error) {
	pool := &Pool{
		family:    p.Family,
		byCountry: make(map[string][]*cityCluster),
		rng:       rng,
		db:        db,
		used:      used,
	}
	weights := make([]float64, len(p.SourceCountries))
	var total float64
	for i, sc := range p.SourceCountries {
		weights[i] = sc.Weight
		total += sc.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("botnet: pool for %s has no positive source weights", p.Family)
	}
	for i, sc := range p.SourceCountries {
		n := int(float64(size) * weights[i] / total)
		if n < 1 {
			n = 1
		}
		if err := pool.recruit(sc.CC, n); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// recruit adds n bots in the given country, extending its city clusters.
func (pool *Pool) recruit(cc string, n int) error {
	added := 0
	for attempt := 0; added < n && attempt < n*20; attempt++ {
		ip, ok := pool.db.SampleIPInCountry(pool.rng, cc)
		if !ok {
			return fmt.Errorf("botnet: country %s unknown to geo DB", cc)
		}
		if pool.used[ip] {
			continue
		}
		loc, ok := pool.db.Lookup(ip)
		if !ok {
			continue
		}
		pool.used[ip] = true
		bot := &dataset.Bot{
			IP:          ip,
			ASN:         loc.ASN,
			CountryCode: loc.CountryCode,
			City:        loc.City,
			Org:         loc.Org,
			Lat:         loc.Point.Lat,
			Lon:         loc.Point.Lon,
		}
		pool.bots = append(pool.bots, bot)
		key := loc.CountryCode + "/" + loc.City
		var cluster *cityCluster
		for _, c := range pool.byCountry[cc] {
			if c.key == key {
				cluster = c
				break
			}
		}
		if cluster == nil {
			cluster = &cityCluster{key: key, cc: cc}
			pool.byCountry[cc] = append(pool.byCountry[cc], cluster)
			pool.clusters = append(pool.clusters, cluster)
		}
		cluster.bots = append(cluster.bots, bot)
		added++
	}
	if added == 0 {
		return fmt.Errorf("botnet: could not recruit any bot in %s", cc)
	}
	// Track recruitment order for shift-pattern analysis.
	found := false
	for _, c := range pool.countries {
		if c == cc {
			found = true
			break
		}
	}
	if !found {
		pool.countries = append(pool.countries, cc)
	}
	// Refresh cluster centers.
	for _, c := range pool.byCountry[cc] {
		c.center = clusterCenter(c.bots)
		c.centerC = geo.NewCachedPoint(c.center)
	}
	return nil
}

// RecruitNewCountry expands the pool into a country it has not used yet,
// implementing the rare "new country" shifts of Fig 8. It returns the
// country code, or false when the atlas is exhausted.
func (pool *Pool) RecruitNewCountry(n int) (string, bool) {
	usedCC := make(map[string]bool, len(pool.countries))
	for _, cc := range pool.countries {
		usedCC[cc] = true
	}
	all := pool.db.Countries().Countries()
	// Deterministic scan order from a random start.
	start := pool.rng.Intn(len(all))
	for i := 0; i < len(all); i++ {
		c := all[(start+i)%len(all)]
		if usedCC[c.Code] {
			continue
		}
		if err := pool.recruit(c.Code, n); err != nil {
			continue
		}
		return c.Code, true
	}
	return "", false
}

// Bots returns every bot in the pool.
func (pool *Pool) Bots() []*dataset.Bot { return pool.bots }

// Size returns the pool population.
func (pool *Pool) Size() int { return len(pool.bots) }

// Countries returns the recruitment-ordered country codes.
func (pool *Pool) Countries() []string {
	out := make([]string, len(pool.countries))
	copy(out, pool.countries)
	return out
}

// anchorCluster draws a cluster in cc weighted by population, so the whole
// bot pool participates in attacks over time rather than only each
// country's largest city.
func (pool *Pool) anchorCluster(cc string) *cityCluster {
	clusters := pool.byCountry[cc]
	if len(clusters) == 0 {
		return nil
	}
	weights := pool.weightBuf[:0]
	for _, c := range clusters {
		weights = append(weights, float64(len(c.bots)))
	}
	pool.weightBuf = weights
	i := WeightedChoice(pool.rng, weights)
	if i < 0 {
		i = 0
	}
	return clusters[i]
}

// Formation assembles the source set of one attack.
//
// Symmetric formations draw candidate bots from a single city and pick
// balanced pairs (most-eastern with most-western) so the signed-distance
// sum nearly cancels — the "complete geographical symmetry" the paper
// observed in >40% of Dirtjumper and Pandora attacks. Asymmetric
// formations split bots across two cities chosen so that the formation's
// predicted signed-sum dispersion lands near targetDispKm (the per-family
// means of the paper's Figs 10-11: Pandora ~566 km, Blackenergy ~4,304 km).
func (pool *Pool) Formation(anchorCC string, size int, symmetric bool, targetDispKm float64, when time.Time) []netip.Addr {
	if size < 1 {
		size = 1
	}
	anchor := pool.anchorCluster(anchorCC)
	if anchor == nil && len(pool.clusters) > 0 {
		anchor = pool.clusters[pool.rng.Intn(len(pool.clusters))]
	}
	if anchor == nil {
		return nil
	}
	var picked []*dataset.Bot
	if symmetric {
		picked = pool.symmetricPick(anchor, size)
	} else {
		picked = pool.asymmetricPick(anchor, size, targetDispKm)
	}
	out := make([]netip.Addr, 0, len(picked))
	for _, b := range picked {
		b.LastActive = when
		out = append(out, b.IP)
	}
	return out
}

// symmetricPick selects a signed-distance-balanced subset of one cluster.
func (pool *Pool) symmetricPick(c *cityCluster, size int) []*dataset.Bot {
	if size > len(c.bots) {
		size = len(c.bots)
	}
	if size == 0 {
		return nil
	}
	// Candidate pool: up to 3x the needed size, randomly chosen.
	candN := size * 3
	if candN > len(c.bots) {
		candN = len(c.bots)
	}
	cands := pool.sampleInto(pool.candBuf[:0], c, candN)
	pool.candBuf = cands
	// Sort candidates by their signed distance from the cluster center,
	// computing each key once: the old comparator re-derived two
	// Haversines per comparison, which made the sort the dominant cost of
	// symmetric formations. Sorting an index slice with the same
	// comparison outcomes yields the same permutation sort.Slice produced
	// when it moved the candidates directly.
	keys := pool.keyBuf[:0]
	for _, b := range cands {
		keys = append(keys, geo.SignedDistance(c.center, geo.LatLon{Lat: b.Lat, Lon: b.Lon}))
	}
	pool.keyBuf = keys
	idx := pool.idxBuf[:0]
	for i := range cands {
		idx = append(idx, i)
	}
	pool.idxBuf = idx
	sort.Slice(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	// Take balanced pairs from the two ends.
	picked := pool.pickBuf[:0]
	lo, hi := 0, len(cands)-1
	for len(picked)+1 < size && lo < hi {
		picked = append(picked, cands[idx[lo]], cands[idx[hi]])
		lo++
		hi--
	}
	if len(picked) < size && lo <= hi {
		picked = append(picked, cands[idx[(lo+hi)/2]])
	}
	pool.pickBuf = picked
	return picked
}

// asymmetricPick homes ~70% of the formation in the anchor cluster and the
// rest in the cluster whose predicted signed-sum dispersion is closest to
// the target.
func (pool *Pool) asymmetricPick(anchor *cityCluster, size int, targetDispKm float64) []*dataset.Bot {
	mainN := size * 7 / 10
	if mainN < 1 {
		mainN = 1
	}
	if mainN > len(anchor.bots) {
		mainN = len(anchor.bots)
	}
	offN := size - mainN
	offset := pool.clusterForDispersion(anchor, mainN, offN, targetDispKm)
	picked := pool.pickFrom(pool.pickBuf[:0], anchor, mainN)
	if offset != nil && offN > 0 {
		picked = pool.pickFrom(picked, offset, offN)
	} else if offN > 0 {
		picked = pool.pickFrom(picked, anchor, offN)
	}
	pool.pickBuf = picked
	return picked
}

// pickFrom appends up to n distinct bots from one cluster to dst.
func (pool *Pool) pickFrom(dst []*dataset.Bot, c *cityCluster, n int) []*dataset.Bot {
	if n > len(c.bots) {
		n = len(c.bots)
	}
	return pool.sampleInto(dst, c, n)
}

// sampleInto appends n distinct bots from a cluster to dst without
// permuting the whole slice (clusters can hold tens of thousands of bots;
// a full Perm per attack would dominate generation time). The rejection
// dedup uses the pool's epoch-stamped scratch array instead of a per-call
// set; the sequence of Intn draws and retries is exactly the old one.
func (pool *Pool) sampleInto(dst []*dataset.Bot, c *cityCluster, n int) []*dataset.Bot {
	if n >= len(c.bots) {
		return append(dst, c.bots...)
	}
	if len(pool.stamp) < len(c.bots) {
		pool.stamp = make([]int64, len(c.bots))
	}
	pool.epoch++
	added := 0
	for added < n {
		i := pool.rng.Intn(len(c.bots))
		if pool.stamp[i] == pool.epoch {
			continue
		}
		pool.stamp[i] = pool.epoch
		dst = append(dst, c.bots[i])
		added++
	}
	return dst
}

// clusterForDispersion finds the offset cluster whose two-cluster formation
// with the anchor (m1 anchor bots, m2 offset bots) has predicted dispersion
// closest to wantKm.
func (pool *Pool) clusterForDispersion(anchor *cityCluster, m1, m2 int, wantKm float64) *cityCluster {
	var (
		best     *cityCluster
		bestDiff float64
	)
	for _, c := range pool.clusters {
		if c == anchor || len(c.bots) == 0 {
			continue
		}
		// Skip clusters nearly due north/south of the anchor: per-bot
		// longitude jitter would flip individual signed-distance signs,
		// making the actual dispersion wildly different from the
		// prediction (and the resulting series unpredictable).
		dLon := c.center.Lon - anchor.center.Lon
		for dLon > 180 {
			dLon -= 360
		}
		for dLon <= -180 {
			dLon += 360
		}
		if dLon < 1.5 && dLon > -1.5 {
			continue
		}
		// Small clusters cannot supply the full offset contingent; predict
		// with what they can actually field so prediction matches reality.
		m2eff := m2
		if len(c.bots) < m2eff {
			m2eff = len(c.bots)
		}
		d := predictDispersionCached(anchor.centerC, c.centerC, m1, m2eff)
		diff := d - wantKm
		if diff < 0 {
			diff = -diff
		}
		if best == nil || diff < bestDiff {
			best, bestDiff = c, diff
		}
	}
	return best
}

// PredictDispersion computes the signed-sum dispersion of an idealized
// two-cluster formation: m1 points exactly at a and m2 points exactly at b.
// It is the proxy the generator uses to hit per-family dispersion targets;
// per-bot jitter adds noise around it but preserves the scale.
func PredictDispersion(a, b geo.LatLon, m1, m2 int) float64 {
	if m1 <= 0 && m2 <= 0 {
		return 0
	}
	center, ok := geo.WeightedCenter(a, b, float64(m1), float64(m2))
	if !ok {
		return 0
	}
	sum := float64(m1)*geo.SignedDistance(center, a) + float64(m2)*geo.SignedDistance(center, b)
	if sum < 0 {
		return -sum
	}
	return sum
}

// predictDispersionCached is PredictDispersion over precomputed cluster
// centers; bit-identical to PredictDispersion(a.Deg, b.Deg, m1, m2). The
// offset-cluster search evaluates every cluster against a fixed anchor per
// attack, so the cached trig halves that loop's math.
func predictDispersionCached(a, b geo.CachedPoint, m1, m2 int) float64 {
	if m1 <= 0 && m2 <= 0 {
		return 0
	}
	center, ok := geo.WeightedCenterCached(a, b, float64(m1), float64(m2))
	if !ok {
		return 0
	}
	sum := float64(m1)*geo.SignedDistanceTo(center, a) + float64(m2)*geo.SignedDistanceTo(center, b)
	if sum < 0 {
		return -sum
	}
	return sum
}

func clusterCenter(bots []*dataset.Bot) geo.LatLon {
	pts := make([]geo.LatLon, len(bots))
	for i, b := range bots {
		pts[i] = geo.LatLon{Lat: b.Lat, Lon: b.Lon}
	}
	c, _ := geo.Center(pts)
	return c
}
