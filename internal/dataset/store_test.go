package dataset

import (
	"net/netip"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildAttack creates a valid attack with the given knobs.
func buildAttack(id DDoSID, botnet BotnetID, family Family, target string, start time.Time, dur time.Duration) *Attack {
	a := validAttack(id)
	a.BotnetID = botnet
	a.Family = family
	a.TargetIP = netip.MustParseAddr(target)
	a.Start = start
	a.End = start.Add(dur)
	return a
}

func TestNewStoreSortsAndIndexes(t *testing.T) {
	attacks := []*Attack{
		buildAttack(3, 2, Pandora, "5.5.5.5", t0.Add(2*time.Hour), time.Hour),
		buildAttack(1, 1, Dirtjumper, "5.5.5.5", t0, time.Hour),
		buildAttack(2, 1, Dirtjumper, "6.6.6.6", t0.Add(time.Hour), time.Hour),
	}
	s, err := NewStore(attacks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumAttacks() != 3 {
		t.Fatalf("NumAttacks = %d, want 3", s.NumAttacks())
	}
	all := s.Attacks()
	for i := 1; i < len(all); i++ {
		if all[i].Start.Before(all[i-1].Start) {
			t.Errorf("attacks not sorted at %d", i)
		}
	}
	if got := len(s.RowsByFamily(Dirtjumper)); got != 2 {
		t.Errorf("RowsByFamily(dirtjumper) = %d, want 2", got)
	}
	// TargetIDs is in address order: 5.5.5.5 first.
	tid := s.TargetIDs()[0]
	if got := s.TargetAddr(tid); got != netip.MustParseAddr("5.5.5.5") {
		t.Fatalf("first target = %v, want 5.5.5.5", got)
	}
	if got := len(s.TargetRows(tid)); got != 2 {
		t.Errorf("TargetRows(5.5.5.5) = %d, want 2", got)
	}
	if got := s.Summary().Botnets; got != 2 {
		t.Errorf("Summary().Botnets = %d, want 2", got)
	}
	if got := s.Families(); len(got) != 2 || got[0] != Dirtjumper || got[1] != Pandora {
		t.Errorf("Families = %v", got)
	}
	if got := s.Targets(); len(got) != 2 {
		t.Errorf("Targets = %v", got)
	}
}

func TestNewStoreRejectsDuplicates(t *testing.T) {
	attacks := []*Attack{validAttack(1), validAttack(1)}
	if _, err := NewStore(attacks, nil, nil); err == nil {
		t.Error("duplicate ddos_id accepted")
	}
	botnets := []*Botnet{{ID: 1, Family: Dirtjumper}, {ID: 1, Family: Pandora}}
	if _, err := NewStore(nil, botnets, nil); err == nil {
		t.Error("duplicate botnet_id accepted")
	}
}

func TestNewStoreRejectsInvalid(t *testing.T) {
	bad := validAttack(1)
	bad.BotIPs = nil
	if _, err := NewStore([]*Attack{bad}, nil, nil); err == nil {
		t.Error("invalid attack accepted")
	}
}

// TestNewStoreRejectsZones: neither a snapshot nor the cluster wire
// carries an IPv6 zone, so a store that took fe80::1%eth0 would write a
// snapshot reading back as fe80::1. NewStore refuses the record instead.
func TestNewStoreRejectsZones(t *testing.T) {
	target := validAttack(1)
	target.TargetIP = netip.MustParseAddr("fe80::1%eth0")
	source := validAttack(2)
	source.BotIPs = []netip.Addr{netip.MustParseAddr("fe80::2"), netip.MustParseAddr("fe80::2%eth0")}
	for name, a := range map[string]*Attack{"target": target, "source": source} {
		if _, err := NewStore([]*Attack{validAttack(3), a}, nil, nil); err == nil || !strings.Contains(err.Error(), "has a zone") {
			t.Errorf("zoned %s IP: NewStore error = %v, want a zone error", name, err)
		}
	}
}

// TestNewStoreBoundsBotIPs: a record may name MaxBotIPs sources and no
// more; NewStore refuses a longer list by name.
func TestNewStoreBoundsBotIPs(t *testing.T) {
	at, over := validAttack(1), validAttack(2)
	at.BotIPs = manyAddrs(MaxBotIPs)
	over.BotIPs = manyAddrs(MaxBotIPs + 1)
	if _, err := NewStore([]*Attack{at}, nil, nil); err != nil {
		t.Errorf("%d source IPs: %v", MaxBotIPs, err)
	}
	if _, err := NewStore([]*Attack{over}, nil, nil); err == nil || !strings.Contains(err.Error(), "more than 65536") {
		t.Errorf("%d source IPs: NewStore error = %v, want the cap named", MaxBotIPs+1, err)
	}
}

// manyAddrs returns n distinct IPv4 addresses.
func manyAddrs(n int) []netip.Addr {
	ips := make([]netip.Addr, n)
	for i := range ips {
		ips[i] = netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
	}
	return ips
}

func TestStoreInRange(t *testing.T) {
	var attacks []*Attack
	for i := 0; i < 10; i++ {
		attacks = append(attacks, buildAttack(DDoSID(i+1), 1, Dirtjumper, "5.5.5.5",
			t0.Add(time.Duration(i)*time.Hour), 30*time.Minute))
	}
	s, err := NewStore(attacks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		from time.Time
		to   time.Time
		want int
	}{
		{name: "all", from: t0, to: t0.Add(11 * time.Hour), want: 10},
		{name: "middle", from: t0.Add(2 * time.Hour), to: t0.Add(5 * time.Hour), want: 3},
		{name: "empty window", from: t0.Add(100 * time.Hour), to: t0.Add(200 * time.Hour), want: 0},
		{name: "half-open excludes to", from: t0, to: t0.Add(time.Hour), want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if lo, hi := s.RowsInRange(tt.from, tt.to); hi-lo != tt.want {
				t.Errorf("RowsInRange = [%d, %d), want %d rows", lo, hi, tt.want)
			}
		})
	}
}

func TestStoreTimeBounds(t *testing.T) {
	s, err := NewStore(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.TimeBounds(); ok {
		t.Error("TimeBounds on empty store reported ok")
	}

	attacks := []*Attack{
		buildAttack(1, 1, Dirtjumper, "5.5.5.5", t0, 10*time.Hour), // ends latest
		buildAttack(2, 1, Dirtjumper, "5.5.5.5", t0.Add(time.Hour), time.Hour),
	}
	s, err = NewStore(attacks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, last, ok := s.TimeBounds()
	if !ok {
		t.Fatal("not ok")
	}
	if !first.Equal(t0) {
		t.Errorf("first = %v, want %v", first, t0)
	}
	if !last.Equal(t0.Add(10 * time.Hour)) {
		t.Errorf("last = %v, want %v", last, t0.Add(10*time.Hour))
	}
}

func TestStoreBotAndBotnetLookup(t *testing.T) {
	botnets := []*Botnet{{ID: 7, Family: Pandora, Hash: "abc123"}}
	bots := []*Bot{{IP: netip.MustParseAddr("9.9.9.9"), ASN: 42, CountryCode: "US", City: "Ashburn", Org: "Ashburn Hosting 1"}}
	s, err := NewStore(nil, botnets, bots)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := s.BotnetByID(7); !ok || b.Family() != Pandora || b.Hash() != "abc123" {
		t.Errorf("BotnetByID(7) = %v, %v", b.Family(), ok)
	}
	if _, ok := s.BotnetByID(8); ok {
		t.Error("BotnetByID(8) resolved, want miss")
	}
	if b := s.Cols().BotRow(0); b.IP() != netip.MustParseAddr("9.9.9.9") || b.ASN() != 42 || b.City() != "Ashburn" {
		t.Errorf("Botlist row 0 = %v AS%d %s", b.IP(), b.ASN(), b.City())
	}
	if s.NumBots() != 1 || s.NumBotnets() != 1 {
		t.Errorf("NumBots/NumBotnets = %d/%d, want 1/1", s.NumBots(), s.NumBotnets())
	}
}

func TestStoreSummary(t *testing.T) {
	botIP1 := netip.MustParseAddr("9.9.9.9")
	botIP2 := netip.MustParseAddr("9.9.9.10")
	a1 := validAttack(1)
	a1.BotIPs = []netip.Addr{botIP1, botIP2}
	a2 := validAttack(2)
	a2.BotnetID = 2
	a2.Category = CategoryUDP
	a2.TargetIP = netip.MustParseAddr("7.7.7.7")
	a2.TargetCountry = "US"
	a2.TargetCity = "Ashburn"
	a2.TargetOrg = "Ashburn Hosting 1"
	a2.TargetASN = 999
	a2.BotIPs = []netip.Addr{botIP1} // shared bot counted once

	bots := []*Bot{
		{IP: botIP1, ASN: 100, CountryCode: "BR", City: "Sao Paulo", Org: "Sao Paulo Net 1"},
		{IP: botIP2, ASN: 101, CountryCode: "TR", City: "Istanbul", Org: "Istanbul Telecom 1"},
	}
	s, err := NewStore([]*Attack{a1, a2}, nil, bots)
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Summary()
	if sum.Attacks != 2 || sum.Botnets != 2 || sum.TrafficTypes != 2 {
		t.Errorf("Attacks/Botnets/Types = %d/%d/%d, want 2/2/2", sum.Attacks, sum.Botnets, sum.TrafficTypes)
	}
	if sum.BotIPs != 2 {
		t.Errorf("BotIPs = %d, want 2 (dedup across attacks)", sum.BotIPs)
	}
	if sum.SourceCountries != 2 || sum.SourceASNs != 2 || sum.SourceOrgs != 2 {
		t.Errorf("source entities = %+v, want 2 each", sum)
	}
	if sum.TargetIPs != 2 || sum.TargetCountries != 2 || sum.TargetASNs != 2 {
		t.Errorf("target entities = %+v, want 2 each", sum)
	}
}

func TestStoreSummaryCityDisambiguation(t *testing.T) {
	// Same city name in different countries must count twice.
	a1 := validAttack(1)
	a1.TargetCountry = "US"
	a1.TargetCity = "Springfield"
	a2 := validAttack(2)
	a2.TargetIP = netip.MustParseAddr("7.7.7.7")
	a2.TargetCountry = "CA"
	a2.TargetCity = "Springfield"
	s, err := NewStore([]*Attack{a1, a2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Summary().TargetCities; got != 2 {
		t.Errorf("TargetCities = %d, want 2 (same name, different countries)", got)
	}
}

// TestStoreMemoizedAccessors checks the lazily-built Families/FamilyCounts/
// Targets views: correct content, canonical order, and a shared backing
// array across repeat calls.
func TestStoreMemoizedAccessors(t *testing.T) {
	attacks := []*Attack{
		buildAttack(1, 1, Pandora, "6.6.6.6", t0, time.Hour),
		buildAttack(2, 1, Dirtjumper, "5.5.5.5", t0.Add(time.Hour), time.Hour),
		buildAttack(3, 2, Dirtjumper, "7.7.7.7", t0.Add(2*time.Hour), time.Hour),
	}
	s, err := NewStore(attacks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fams := s.Families()
	if len(fams) != 2 || fams[0] != Dirtjumper || fams[1] != Pandora {
		t.Fatalf("Families() = %v, want sorted [dirtjumper pandora]", fams)
	}
	counts := s.FamilyCounts()
	if len(counts) != 2 || counts[0] != (FamilyCount{Family: Dirtjumper, Attacks: 2}) ||
		counts[1] != (FamilyCount{Family: Pandora, Attacks: 1}) {
		t.Fatalf("FamilyCounts() = %+v", counts)
	}
	targets := s.Targets()
	if len(targets) != 3 || s.NumTargets() != 3 {
		t.Fatalf("Targets() = %v, NumTargets = %d", targets, s.NumTargets())
	}
	for i := 1; i < len(targets); i++ {
		if !targets[i-1].Less(targets[i]) {
			t.Fatalf("Targets() not sorted: %v", targets)
		}
	}
	if again := s.Families(); &again[0] != &fams[0] {
		t.Error("Families() rebuilt its slice on a repeat call; memoization is not working")
	}
	if again := s.Targets(); &again[0] != &targets[0] {
		t.Error("Targets() rebuilt its slice on a repeat call; memoization is not working")
	}
}

// TestStoreAccessorsConcurrent races many first-time readers of the
// memoized accessors and the sharded summary under -race.
func TestStoreAccessorsConcurrent(t *testing.T) {
	attacks := make([]*Attack, 0, 300)
	for i := 0; i < 300; i++ {
		fam := Dirtjumper
		if i%3 == 0 {
			fam = Pandora
		}
		ip := netip.AddrFrom4([4]byte{10, byte(i / 250), byte(i % 250), 9})
		attacks = append(attacks, buildAttack(DDoSID(i+1), BotnetID(i%7+1), fam, ip.String(), t0.Add(time.Duration(i)*time.Minute), time.Hour))
	}
	s, err := NewStore(attacks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if got := len(s.Families()); got != 2 {
					t.Errorf("Families() = %d families, want 2", got)
				}
				if got := len(s.FamilyCounts()); got != 2 {
					t.Errorf("FamilyCounts() = %d rows, want 2", got)
				}
				if got := len(s.Targets()); got != 300 {
					t.Errorf("Targets() = %d, want 300", got)
				}
				if sum := s.Summary(); sum.Attacks != 300 || sum.TargetIPs != 300 {
					t.Errorf("summary = %+v", sum)
				}
			}
		}()
	}
	wg.Wait()
}

// TestStoreSummaryWorkersMatchesSequential pins the shard-merge
// invariant: any pool width (GOMAXPROCS) yields the sequential counts.
func TestStoreSummaryWorkersMatchesSequential(t *testing.T) {
	attacks := make([]*Attack, 0, 100)
	for i := 0; i < 100; i++ {
		ip := netip.AddrFrom4([4]byte{10, 1, byte(i % 50), 9})
		attacks = append(attacks, buildAttack(DDoSID(i+1), BotnetID(i%5+1), Dirtjumper, ip.String(), t0.Add(time.Duration(i)*time.Minute), time.Hour))
	}
	s, err := NewStore(attacks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	want := s.buildSummary() // Summary would answer the later calls from its memo
	for _, procs := range []int{2, 3, 7, 16} {
		runtime.GOMAXPROCS(procs)
		if got := s.buildSummary(); got != want {
			t.Fatalf("GOMAXPROCS=%d: Summary = %+v, want %+v", procs, got, want)
		}
	}
}
