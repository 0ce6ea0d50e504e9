package botnet

import (
	"cmp"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/geo"
)

// testProfile returns a small, fast profile for one family.
func testProfile(f dataset.Family, attacks int) *Profile {
	return &Profile{
		Family:          f,
		ActiveStartFrac: 0,
		ActiveEndFrac:   1,
		Protocols: []ProtocolShare{
			{Category: dataset.CategoryHTTP, Count: attacks},
		},
		Botnets: 4,
		TargetCountries: []CountryShare{
			{CC: "US", Weight: 5}, {CC: "RU", Weight: 3},
		},
		TargetCountryCount: 5,
		TargetPoolSize:     10,
		TargetZipf:         1.1,
		DurationMedianSec:  1766,
		DurationSigma:      1.5,
		DurationMaxSec:     200000,
		Intervals: IntervalModel{
			Modes: []IntervalMode{
				{Weight: 0.4, MedianSec: 0},
				{Weight: 0.6, MedianSec: 600, Sigma: 0.4},
			},
			MaxSec: 1e6,
		},
		SourceCountries: []CountryShare{
			{CC: "RU", Weight: 5}, {CC: "UA", Weight: 3},
		},
		BotPoolSize:        300,
		MagnitudeMedian:    10,
		MagnitudeSigma:     0.6,
		MagnitudeMax:       40,
		NewCountryPerWeek:  0.5,
		SymmetricProb:      0.5,
		DispersionTargetKm: 2500,
		IntraCollab:        3,
		ConsecutiveChains:  2,
		ChainLengthMean:    4,
	}
}

func testWindow() Window {
	start := time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC)
	return Window{Start: start, End: start.AddDate(0, 0, 60)}
}

func runSmallSim(t *testing.T, seed int64) *Output {
	t.Helper()
	db := geo.NewDB(geo.DBConfig{Seed: seed})
	profiles := []*Profile{
		testProfile(dataset.Dirtjumper, 300),
		testProfile(dataset.Pandora, 150),
	}
	sim, err := New(Config{
		Seed:   seed,
		Window: testWindow(),
		InterCollabs: []InterCollab{
			{Initiator: dataset.Dirtjumper, Partner: dataset.Pandora, Pairs: 10, MatchDuration: true},
		},
	}, db, profiles)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	db := geo.NewDB(geo.DBConfig{Seed: 1})
	good := []*Profile{testProfile(dataset.Dirtjumper, 10)}
	w := testWindow()

	if _, err := New(Config{Seed: 1, Window: w}, nil, good); err == nil {
		t.Error("nil DB accepted")
	}
	if _, err := New(Config{Seed: 1}, db, good); err == nil {
		t.Error("empty window accepted")
	}
	if _, err := New(Config{Seed: 1, Window: w}, db, nil); err == nil {
		t.Error("no profiles accepted")
	}
	dup := []*Profile{testProfile(dataset.Pandora, 10), testProfile(dataset.Pandora, 10)}
	if _, err := New(Config{Seed: 1, Window: w}, db, dup); err == nil {
		t.Error("duplicate profiles accepted")
	}
	badCollab := Config{Seed: 1, Window: w, InterCollabs: []InterCollab{
		{Initiator: dataset.Dirtjumper, Partner: dataset.Optima, Pairs: 1},
	}}
	if _, err := New(badCollab, db, good); err == nil {
		t.Error("inter-collab with unknown family accepted")
	}
	bad := testProfile(dataset.YZF, 10)
	bad.BotPoolSize = 0
	if _, err := New(Config{Seed: 1, Window: w}, db, []*Profile{bad}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestSimProducesExactCounts(t *testing.T) {
	out := runSmallSim(t, 11)
	byFamily := make(map[dataset.Family]int)
	for _, a := range out.Attacks {
		byFamily[a.Family]++
	}
	if byFamily[dataset.Dirtjumper] != 300 {
		t.Errorf("dirtjumper attacks = %d, want 300", byFamily[dataset.Dirtjumper])
	}
	if byFamily[dataset.Pandora] != 150 {
		t.Errorf("pandora attacks = %d, want 150", byFamily[dataset.Pandora])
	}
	if len(out.Botnets) != 8 {
		t.Errorf("botnets = %d, want 8", len(out.Botnets))
	}
}

func TestSimOutputIsValidStore(t *testing.T) {
	out := runSmallSim(t, 12)
	store, err := out.Store()
	if err != nil {
		t.Fatalf("simulated output rejected by store: %v", err)
	}
	if store.NumAttacks() != len(out.Attacks) {
		t.Errorf("store attacks = %d, want %d", store.NumAttacks(), len(out.Attacks))
	}
	// Every attack must lie within (or at least start within) the window.
	w := testWindow()
	for _, a := range store.Attacks() {
		if a.Start.Before(w.Start) || a.Start.After(w.End) {
			t.Errorf("attack %d starts outside window: %v", a.ID, a.Start)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	a := runSmallSim(t, 77)
	b := runSmallSim(t, 77)
	if len(a.Attacks) != len(b.Attacks) {
		t.Fatalf("different attack counts: %d vs %d", len(a.Attacks), len(b.Attacks))
	}
	for i := range a.Attacks {
		x, y := a.Attacks[i], b.Attacks[i]
		if x.ID != y.ID || !x.Start.Equal(y.Start) || x.TargetIP != y.TargetIP ||
			len(x.BotIPs) != len(y.BotIPs) {
			t.Fatalf("attack %d differs between identical seeds", i)
		}
	}

	c := runSmallSim(t, 78)
	same := 0
	for i := range a.Attacks {
		if i < len(c.Attacks) && a.Attacks[i].TargetIP == c.Attacks[i].TargetIP {
			same++
		}
	}
	if same == len(a.Attacks) {
		t.Error("different seeds produced identical targeting")
	}
}

func TestSimAttacksSorted(t *testing.T) {
	out := runSmallSim(t, 13)
	for i := 1; i < len(out.Attacks); i++ {
		if out.Attacks[i].Start.Before(out.Attacks[i-1].Start) {
			t.Fatalf("attacks not sorted at %d", i)
		}
	}
}

func TestSimInterCollabPairs(t *testing.T) {
	out := runSmallSim(t, 14)
	// Count Pandora attacks that share start time AND target with a
	// Dirtjumper attack: at least the 10 staged pairs must exist.
	type key struct {
		start  time.Time
		target netip.Addr
	}
	dj := make(map[key]bool)
	for _, a := range out.Attacks {
		if a.Family == dataset.Dirtjumper {
			dj[key{a.Start, a.TargetIP}] = true
		}
	}
	pairs := 0
	for _, a := range out.Attacks {
		if a.Family == dataset.Pandora && dj[key{a.Start, a.TargetIP}] {
			pairs++
		}
	}
	if pairs < 10 {
		t.Errorf("found %d dirtjumper-pandora coincident pairs, want >= 10", pairs)
	}
}

func TestSimIntraCollabGroups(t *testing.T) {
	out := runSmallSim(t, 15)
	// Count same-family groups: same start, same target, >= 2 distinct
	// botnets. Each profile staged 3 of them.
	type key struct {
		fam    dataset.Family
		start  time.Time
		target netip.Addr
	}
	groups := make(map[key]map[dataset.BotnetID]bool)
	for _, a := range out.Attacks {
		k := key{a.Family, a.Start, a.TargetIP}
		if groups[k] == nil {
			groups[k] = make(map[dataset.BotnetID]bool)
		}
		groups[k][a.BotnetID] = true
	}
	count := 0
	for _, botnets := range groups {
		if len(botnets) >= 2 {
			count++
		}
	}
	if count < 4 {
		t.Errorf("found %d intra-family collaboration groups, want >= 4", count)
	}
}

func TestSimChains(t *testing.T) {
	out := runSmallSim(t, 16)
	// A chain shows up as consecutive attacks on one target whose next
	// start is within 60 s of the previous end.
	byTarget := make(map[netip.Addr][]*dataset.Attack)
	for _, a := range out.Attacks {
		byTarget[a.TargetIP] = append(byTarget[a.TargetIP], a)
	}
	chainLinks := 0
	for _, list := range byTarget {
		for i := 1; i < len(list); i++ {
			gap := list[i].Start.Sub(list[i-1].End)
			if gap >= 0 && gap <= 60*time.Second {
				chainLinks++
			}
		}
	}
	if chainLinks < 4 {
		t.Errorf("found %d chain links, want >= 4 (2 chains of ~4 per family)", chainLinks)
	}
}

func TestSimBurst(t *testing.T) {
	db := geo.NewDB(geo.DBConfig{Seed: 9})
	p := testProfile(dataset.Dirtjumper, 400)
	sim, err := New(Config{Seed: 9, Window: testWindow()}, db, []*Profile{p})
	if err != nil {
		t.Fatal(err)
	}
	sim.SetBurst(dataset.Dirtjumper, &BurstSpec{DayOffset: 1, Count: 150, TargetCC: "RU", Targets: 6})
	out, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Attacks) != 400 {
		t.Fatalf("total attacks = %d, want 400 (burst included in budget)", len(out.Attacks))
	}
	// The burst day must dominate the daily histogram.
	w := testWindow()
	daily := make(map[int]int)
	for _, a := range out.Attacks {
		daily[int(a.Start.Sub(w.Start).Hours()/24)]++
	}
	maxDay, maxCount := -1, 0
	for d, c := range daily {
		if c > maxCount {
			maxDay, maxCount = d, c
		}
	}
	if maxDay != 1 {
		t.Errorf("peak day = %d with %d attacks, want day 1", maxDay, maxCount)
	}
	if maxCount < 150 {
		t.Errorf("peak day count = %d, want >= 150", maxCount)
	}
	// Burst victims share one /16: collect RU victims on day 1.
	prefixes := make(map[[2]byte]int)
	for _, a := range out.Attacks {
		day := int(a.Start.Sub(w.Start).Hours() / 24)
		if day == 1 && a.TargetCountry == "RU" {
			raw := a.TargetIP.As4()
			prefixes[[2]byte{raw[0], raw[1]}]++
		}
	}
	best := 0
	for _, c := range prefixes {
		if c > best {
			best = c
		}
	}
	if best < 140 {
		t.Errorf("largest same-/16 burst cluster = %d, want >= 140", best)
	}
}

func TestSimInsufficientSinglesForCollab(t *testing.T) {
	db := geo.NewDB(geo.DBConfig{Seed: 10})
	profiles := []*Profile{
		testProfile(dataset.Dirtjumper, 20),
		testProfile(dataset.Pandora, 20),
	}
	sim, err := New(Config{
		Seed:   10,
		Window: testWindow(),
		InterCollabs: []InterCollab{
			// More pairs than either family has singles.
			{Initiator: dataset.Dirtjumper, Partner: dataset.Pandora, Pairs: 500, MatchDuration: true},
		},
	}, db, profiles)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Error("oversubscribed inter-collab succeeded, want error")
	}
}

func TestPoolRecruitment(t *testing.T) {
	db := geo.NewDB(geo.DBConfig{Seed: 20})
	rng := rand.New(rand.NewSource(20))
	p := testProfile(dataset.Optima, 10)
	pool, err := NewPool(rng, db, p, 200, make(map[netip.Addr]bool))
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() < 150 {
		t.Errorf("pool size = %d, want close to 200", pool.Size())
	}
	ccs := pool.Countries()
	if len(ccs) != 2 {
		t.Errorf("countries = %v, want [RU UA]", ccs)
	}
	cc, ok := pool.RecruitNewCountry(10)
	if !ok {
		t.Fatal("RecruitNewCountry failed")
	}
	if cc == "RU" || cc == "UA" {
		t.Errorf("new country %s is not new", cc)
	}
	if len(pool.Countries()) != 3 {
		t.Errorf("countries after recruitment = %v", pool.Countries())
	}
}

func TestPoolSharedDedup(t *testing.T) {
	db := geo.NewDB(geo.DBConfig{Seed: 21})
	used := make(map[netip.Addr]bool)
	rng := rand.New(rand.NewSource(21))
	p := testProfile(dataset.Optima, 10)
	pool1, err := NewPool(rng, db, p, 150, used)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := NewPool(rng, db, p, 150, used)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[netip.Addr]bool)
	for _, b := range pool1.Bots() {
		seen[b.IP] = true
	}
	for _, b := range pool2.Bots() {
		if seen[b.IP] {
			t.Fatalf("bot %v recruited by both pools", b.IP)
		}
	}
}

func TestFormationSymmetricVsAsymmetric(t *testing.T) {
	db := geo.NewDB(geo.DBConfig{Seed: 22})
	rng := rand.New(rand.NewSource(22))
	p := testProfile(dataset.Pandora, 10)
	p.SourceCountries = []CountryShare{{CC: "RU", Weight: 1}}
	pool, err := NewPool(rng, db, p, 2000, make(map[netip.Addr]bool))
	if err != nil {
		t.Fatal(err)
	}
	when := time.Now()
	dispersionOf := func(symmetric bool) float64 {
		var total float64
		const trials = 30
		for i := 0; i < trials; i++ {
			ips := pool.Formation("RU", 40, symmetric, 2500, when)
			pts := make([]geo.LatLon, 0, len(ips))
			for _, ip := range ips {
				loc, ok := db.Lookup(ip)
				if !ok {
					t.Fatalf("unresolvable formation IP %v", ip)
				}
				pts = append(pts, loc.Point)
			}
			d, ok := geo.Dispersion(pts)
			if !ok {
				t.Fatal("empty formation")
			}
			total += d
		}
		return total / trials
	}
	sym := dispersionOf(true)
	asym := dispersionOf(false)
	if sym >= asym {
		t.Errorf("symmetric dispersion %v not below asymmetric %v", sym, asym)
	}
	if sym > 200 {
		t.Errorf("symmetric dispersion = %v km, want near zero", sym)
	}
}

func TestFormationMarksLastActive(t *testing.T) {
	db := geo.NewDB(geo.DBConfig{Seed: 23})
	rng := rand.New(rand.NewSource(23))
	p := testProfile(dataset.Nitol, 10)
	pool, err := NewPool(rng, db, p, 100, make(map[netip.Addr]bool))
	if err != nil {
		t.Fatal(err)
	}
	when := time.Date(2012, 9, 1, 12, 0, 0, 0, time.UTC)
	ips := pool.Formation("RU", 5, false, 1000, when)
	if len(ips) == 0 {
		t.Fatal("empty formation")
	}
	byIP := make(map[netip.Addr]*dataset.Bot)
	for _, b := range pool.Bots() {
		byIP[b.IP] = b
	}
	for _, ip := range ips {
		if !byIP[ip].LastActive.Equal(when) {
			t.Errorf("bot %v LastActive = %v, want %v", ip, byIP[ip].LastActive, when)
		}
	}
}

// TestPoolSamplingZeroAlloc holds the generator's per-formation kernels
// to zero allocations once the pool's scratch has grown (DESIGN §5b): one
// formation per attack, hundreds of thousands per family at scale 1.
func TestPoolSamplingZeroAlloc(t *testing.T) {
	db := geo.NewDB(geo.DBConfig{Seed: 21})
	p := testProfile(dataset.Optima, 10)
	pool, err := NewPool(rand.New(rand.NewSource(21)), db, p, 2000, make(map[netip.Addr]bool))
	if err != nil {
		t.Fatal(err)
	}
	anchor := pool.clusters[0]
	dst := make([]int, 0, len(anchor.bots))
	var sink float64
	for name, kernel := range map[string]func(){
		"sampleInto":           func() { dst = pool.sampleInto(dst[:0], anchor, len(anchor.bots)/2) },
		"symmetricPick":        func() { pool.symmetricPick(anchor, len(anchor.bots)/4) },
		"clusterForDispersion": func() { pool.clusterForDispersion(anchor, 30, 10, 500) },
		"predictDispersion": func() {
			sink += predictDispersion(anchor.center, pool.clusters[len(pool.clusters)-1].center, 30, 10)
		},
	} {
		if n := testing.AllocsPerRun(100, kernel); n != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, n)
		}
	}
	_ = sink
}

// freshSymmetricPick is symmetricPick without the key cache: the same
// draws, every candidate's key computed from the cluster's current center
// and sorted the way the generator always has.
func freshSymmetricPick(pool *Pool, c *cityCluster, size int) []netip.Addr {
	size = min(size, len(c.bots))
	cands := pool.sampleInto(nil, c, min(size*3, len(c.bots)))
	keys := make([]float64, len(cands))
	idx := make([]int, len(cands))
	for i, pos := range cands {
		b := c.bots[pos]
		keys[i] = geo.SignedDistance(c.center.Deg, geo.LatLon{Lat: b.Lat, Lon: b.Lon})
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return keys[idx[i]] < keys[idx[j]] })
	var picked []netip.Addr
	lo, hi := 0, len(cands)-1
	for len(picked)+1 < size && lo < hi {
		picked = append(picked, c.bots[cands[idx[lo]]].IP, c.bots[cands[idx[hi]]].IP)
		lo++
		hi--
	}
	if len(picked) < size && lo <= hi {
		picked = append(picked, c.bots[cands[idx[(lo+hi)/2]]].IP)
	}
	return picked
}

// TestSymmetricPickKeysFollowCenter drives two identical pools through the
// same recruitments — a new country, then more bots into an existing city,
// which moves that cluster's center — and holds the cached-key pick on one
// to the freshly keyed pick on the other after each step.
func TestSymmetricPickKeysFollowCenter(t *testing.T) {
	newPool := func() *Pool {
		p := testProfile(dataset.Optima, 10)
		pool, err := NewPool(rand.New(rand.NewSource(22)), geo.NewDB(geo.DBConfig{Seed: 22}), p, 3000, make(map[netip.Addr]bool))
		if err != nil {
			t.Fatal(err)
		}
		return pool
	}
	cached, fresh := newPool(), newPool()
	largest := func(pool *Pool) *cityCluster {
		return slices.MaxFunc(pool.byCountry["RU"], func(a, b *cityCluster) int { return cmp.Compare(len(a.bots), len(b.bots)) })
	}
	check := func(step string, c, f *cityCluster) {
		t.Helper()
		for _, size := range []int{7, 40} {
			var got []netip.Addr
			for _, b := range cached.symmetricPick(c, size) {
				got = append(got, b.IP)
			}
			if want := freshSymmetricPick(fresh, f, size); !slices.Equal(got, want) {
				t.Fatalf("%s: symmetricPick(%s, %d) = %v, freshly keyed %v", step, c.key, size, got, want)
			}
		}
	}
	check("initial", largest(cached), largest(fresh))

	cc, ok := cached.RecruitNewCountry(200)
	if cc2, ok2 := fresh.RecruitNewCountry(200); !ok || !ok2 || cc != cc2 {
		t.Fatalf("RecruitNewCountry = %s,%v and %s,%v", cc, ok, cc2, ok2)
	}
	check("new country", cached.byCountry[cc][0], fresh.byCountry[cc][0])

	before := largest(cached).center
	if err := cached.recruit("RU", 1500); err != nil {
		t.Fatal(err)
	}
	if err := fresh.recruit("RU", 1500); err != nil {
		t.Fatal(err)
	}
	if largest(cached).center == before {
		t.Fatal("recruiting into RU left its largest cluster's center in place; the test checks nothing")
	}
	check("center moved", largest(cached), largest(fresh))
}
