package core

import (
	"fmt"
	"math/bits"
	"net/netip"
	"runtime"
	"sort"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/synth"
)

func TestBuildBlacklistRanking(t *testing.T) {
	heavy := netip.MustParseAddr("9.0.0.1")  // in 3 attacks, 2 families
	medium := netip.MustParseAddr("9.0.0.2") // in 2 attacks
	light := netip.MustParseAddr("9.0.0.3")  // in 1 attack

	a1 := mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour)
	a1.BotIPs = []netip.Addr{heavy, medium}
	a2 := mkAttack(2, dataset.Dirtjumper, 1, "5.5.5.2", t0.Add(time.Hour), time.Hour)
	a2.BotIPs = []netip.Addr{heavy, medium, light}
	a3 := mkAttack(3, dataset.Pandora, 2, "5.5.5.3", t0.Add(2*time.Hour), time.Hour)
	a3.BotIPs = []netip.Addr{heavy}

	s := mustStore(t, []*dataset.Attack{a1, a2, a3})
	bl, err := BuildBlacklist(s, time.Time{}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Len() != 3 {
		t.Fatalf("blacklist size = %d, want 3", bl.Len())
	}
	entries := bl.Entries().Clone()
	if entries[0].IP != heavy || entries[0].Occurrences != 3 || entries[0].Families != 2 {
		t.Errorf("top entry = %+v, want heavy bot with 3 occurrences / 2 families", entries[0])
	}
	if entries[1].IP != medium || entries[2].IP != light {
		t.Errorf("ranking wrong: %+v", entries)
	}
	if !bl.Contains(heavy) || bl.Contains(netip.MustParseAddr("1.1.1.1")) {
		t.Error("membership checks broken")
	}

	capped, err := BuildBlacklist(s, time.Time{}, time.Time{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Len() != 1 || capped.Entries().At(0).IP != heavy {
		t.Errorf("capped blacklist = %+v", capped.Entries())
	}
}

func TestBuildBlacklistWindow(t *testing.T) {
	a1 := mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour)
	a2 := mkAttack(2, dataset.Dirtjumper, 1, "5.5.5.2", t0.AddDate(0, 0, 5), time.Hour)
	a2.BotIPs = []netip.Addr{netip.MustParseAddr("9.0.0.9")}
	s := mustStore(t, []*dataset.Attack{a1, a2})

	bl, err := BuildBlacklist(s, time.Time{}, t0.AddDate(0, 0, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Len() != 1 || bl.Contains(netip.MustParseAddr("9.0.0.9")) {
		t.Errorf("window not respected: %+v", bl.Entries())
	}

	if _, err := BuildBlacklist(s, t0.AddDate(1, 0, 0), time.Time{}, 0); err == nil {
		t.Error("empty training window succeeded")
	}
	empty := mustStore(t, nil)
	if _, err := BuildBlacklist(empty, time.Time{}, time.Time{}, 0); err == nil {
		t.Error("empty workload succeeded")
	}
}

func TestEvaluateBlacklist(t *testing.T) {
	recidivist := netip.MustParseAddr("9.0.0.1")
	fresh := netip.MustParseAddr("9.0.0.2")

	train := mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour)
	train.BotIPs = []netip.Addr{recidivist}
	// Future attack reuses the recidivist plus a fresh bot.
	future := mkAttack(2, dataset.Dirtjumper, 1, "5.5.5.2", t0.AddDate(0, 0, 10), time.Hour)
	future.BotIPs = []netip.Addr{recidivist, fresh}

	s := mustStore(t, []*dataset.Attack{train, future})
	split := t0.AddDate(0, 0, 5)
	bl, err := BuildBlacklist(s, time.Time{}, split, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateBlacklist(s, bl, split, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Attacks != 1 {
		t.Fatalf("evaluated attacks = %d, want 1", ev.Attacks)
	}
	if ev.BotCoverage != 0.5 {
		t.Errorf("coverage = %v, want 0.5", ev.BotCoverage)
	}
	if ev.AttacksBlunted != 1 { // 50% of sources blocked counts as blunted
		t.Errorf("blunted = %v, want 1", ev.AttacksBlunted)
	}

	if _, err := EvaluateBlacklist(s, bl, t0.AddDate(2, 0, 0), time.Time{}); err == nil {
		t.Error("empty evaluation window succeeded")
	}
	if _, err := EvaluateBlacklist(s, &Blacklist{}, split, time.Time{}); err == nil {
		t.Error("empty blacklist succeeded")
	}
}

func TestDefenseOnSynthWorkload(t *testing.T) {
	s := synthWorkload(t)
	first, last, _ := s.TimeBounds()
	split := first.Add(last.Sub(first) / 2)

	bl, err := BuildBlacklist(s, time.Time{}, split, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateBlacklist(s, bl, split, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	// Bots persist across campaigns, so a history blacklist must block a
	// substantial share of future attack sources.
	if ev.BotCoverage < 0.2 {
		t.Errorf("future bot coverage = %v, want >= 0.2", ev.BotCoverage)
	}
	// A top-1000 blacklist covers less than the full one but is not empty.
	small, err := BuildBlacklist(s, time.Time{}, split, 1000)
	if err != nil {
		t.Fatal(err)
	}
	evSmall, err := EvaluateBlacklist(s, small, split, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if evSmall.BotCoverage <= 0 || evSmall.BotCoverage > ev.BotCoverage+1e-9 {
		t.Errorf("capped coverage %v vs full %v inconsistent", evSmall.BotCoverage, ev.BotCoverage)
	}
}

// TestBlacklistTruncate pins Truncate against rebuilding with a cap: the
// entries are already ranked, so the truncated list must equal a fresh
// BuildBlacklist with the same maxSize.
func TestBlacklistTruncate(t *testing.T) {
	s := synthWorkload(t)
	full, err := BuildBlacklist(s, time.Time{}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{1, 10, full.Len() / 2, full.Len(), full.Len() + 1, 0, -1} {
		rebuilt, err := BuildBlacklist(s, time.Time{}, time.Time{}, cap)
		if err != nil {
			t.Fatal(err)
		}
		got := full.Truncate(cap)
		if got.Len() != rebuilt.Len() {
			t.Fatalf("cap %d: Truncate len %d, rebuild len %d", cap, got.Len(), rebuilt.Len())
		}
		for i, e := range got.Entries().All() {
			if e != rebuilt.Entries().At(i) {
				t.Fatalf("cap %d: entry %d differs: %+v vs %+v", cap, i, e, rebuilt.Entries().At(i))
			}
			if !got.Contains(e.IP) {
				t.Fatalf("cap %d: member set missing ranked entry %s", cap, e.IP)
			}
		}
		// The rank array is shared with the full list, so the failure mode
		// of a truncated list is listing too much, not too little.
		if cap > 0 && cap < full.Len() {
			if cut := full.Entries().At(cap).IP; got.Contains(cut) || !full.Contains(cut) {
				t.Fatalf("cap %d: first cut entry %s: truncated contains=%v, full contains=%v",
					cap, cut, got.Contains(cut), full.Contains(cut))
			}
		}
	}
	if full.Truncate(0) != full || full.Truncate(full.Len()) != full {
		t.Error("no-op Truncate should return the receiver")
	}

	half := full.Truncate(full.Len() / 2)
	twice := half.Truncate(10)
	if twice.Len() != 10 || twice.Contains(half.Entries().At(10).IP) || !twice.Contains(half.Entries().At(9).IP) {
		t.Errorf("truncating a truncated list: len %d, contains[10]=%v, contains[9]=%v",
			twice.Len(), twice.Contains(half.Entries().At(10).IP), twice.Contains(half.Entries().At(9).IP))
	}
	if half.Truncate(full.Len()) != half {
		t.Error("a truncated list must not grow back")
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = full.Truncate(10) }); allocs > 1 {
		t.Errorf("Truncate allocates %.0f objects, want the list header only", allocs)
	}
}

// referenceBlacklist is the address-space implementation BuildBlacklist
// replaced (sort.Slice over entries with an Addr.Less tie-break, then a
// member map), kept as the oracle for the dense-id one.
func referenceBlacklist(s *dataset.Store, from, to time.Time, maxSize int) ([]BlacklistEntry, map[netip.Addr]bool, error) {
	n := s.NumAttacks()
	if n == 0 {
		return nil, nil, fmt.Errorf("core: empty workload")
	}
	ix := s.BotDense()
	fams := s.Families().Clone()
	famBit := make(map[dataset.Family]int, len(fams))
	for i, f := range fams {
		famBit[f] = i
	}
	famWords := (len(fams) + 63) / 64
	counts := make([]int32, ix.NumIDs())
	famSets := make([]uint64, ix.NumIDs()*famWords)
	for i := 0; i < n; i++ {
		v := s.AttackAt(i)
		if !from.IsZero() && v.Start().Before(from) {
			continue
		}
		if !to.IsZero() && !v.Start().Before(to) {
			continue
		}
		bit := famBit[v.Family()]
		word, mask := bit/64, uint64(1)<<(bit%64)
		for _, id := range ix.RefsRow(i).All() {
			counts[id]++
			famSets[int(id)*famWords+word] |= mask
		}
	}
	var entries []BlacklistEntry
	for id, c := range counts {
		if c == 0 {
			continue
		}
		nf := 0
		for w := 0; w < famWords; w++ {
			nf += bits.OnesCount64(famSets[id*famWords+w])
		}
		entries = append(entries, BlacklistEntry{IP: ix.IP(int32(id)), Occurrences: int(c), Families: nf})
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("core: no attacks inside the training window")
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Occurrences != entries[j].Occurrences {
			return entries[i].Occurrences > entries[j].Occurrences
		}
		if entries[i].Families != entries[j].Families {
			return entries[i].Families > entries[j].Families
		}
		return entries[i].IP.Less(entries[j].IP)
	})
	if maxSize > 0 && len(entries) > maxSize {
		entries = entries[:maxSize]
	}
	members := make(map[netip.Addr]bool, len(entries))
	for _, e := range entries {
		members[e.IP] = true
	}
	return entries, members, nil
}

// referenceEvaluate is the replay EvaluateBlacklist replaced: membership
// by address, one map probe per bot reference.
func referenceEvaluate(s *dataset.Store, members map[netip.Addr]bool, from, to time.Time) (BlacklistEvaluation, error) {
	var (
		out           BlacklistEvaluation
		refs, blocked int
		perAttack     []float64
	)
	ix := s.BotDense()
	for i, n := 0, s.NumAttacks(); i < n; i++ {
		v := s.AttackAt(i)
		if !from.IsZero() && v.Start().Before(from) {
			continue
		}
		if !to.IsZero() && !v.Start().Before(to) {
			continue
		}
		out.Attacks++
		hit := 0
		span := ix.RefsRow(i).Clone()
		for _, id := range span {
			refs++
			if members[ix.IP(id)] {
				blocked++
				hit++
			}
		}
		frac := float64(hit) / float64(len(span))
		perAttack = append(perAttack, frac)
		if frac >= 0.5 {
			out.AttacksBlunted++
		}
	}
	if out.Attacks == 0 {
		return BlacklistEvaluation{}, fmt.Errorf("core: no attacks inside the evaluation window")
	}
	out.BotCoverage = float64(blocked) / float64(refs)
	out.AttacksBlunted /= float64(out.Attacks)
	sort.Float64s(perAttack)
	out.MedianCoverage = perAttack[len(perAttack)/2]
	return out, nil
}

// tieStore is a hand-built workload whose ranking is decided almost
// entirely by the address tie-break. Every address joins the first
// attack, so the half-window list is one fourteen-way tie; the later
// attacks lift subsets into (occurrences, families) classes that each
// mix IPv4, IPv6 and an IPv4-mapped IPv6 twin of a listed IPv4 address.
func tieStore(t *testing.T) *dataset.Store {
	t.Helper()
	mk := func(id int, f dataset.Family, bots ...string) *dataset.Attack {
		a := mkAttack(dataset.DDoSID(id), f, dataset.BotnetID(id), "5.5.5.1", t0.Add(time.Duration(id)*time.Hour), time.Hour)
		a.BotIPs = nil
		for _, b := range bots {
			a.BotIPs = append(a.BotIPs, netip.MustParseAddr(b))
		}
		return a
	}
	twoFams := []string{"9.0.0.1", "fe80::1", "::ffff:9.0.0.1", "2001:db8::1", "200.1.2.3"}
	oneFam := []string{"2001:db8::2", "8.8.8.8", "::9", "0.0.0.9", "::ffff:8.8.8.8"}
	rest := []string{"255.255.255.254", "10.255.0.1", "2001:db8:0:1::1", "9.0.0.2"}
	all := append(append(append([]string(nil), rest...), oneFam...), twoFams...)
	return mustStore(t, []*dataset.Attack{
		mk(1, dataset.Dirtjumper, all...),
		mk(2, dataset.Dirtjumper, all[:8]...),
		mk(3, dataset.Pandora, twoFams...),
		mk(4, dataset.Dirtjumper, oneFam...),
		mk(5, dataset.Pandora, "9.0.0.1", "::ffff:9.0.0.1", "8.8.8.8", "255.255.255.254"),
		mk(6, dataset.Dirtjumper, rest...),
	})
}

// TestBlacklistMatchesReference pins the dense-id kernels against the
// address-space ones they replaced: same entries in the same order, and
// bit-equal evaluation results, for whole and half windows and for the
// list sizes the report and the examples use — on the ties store, for
// every size.
func TestBlacklistMatchesReference(t *testing.T) {
	for name, s := range map[string]*dataset.Store{"synth": synthWorkload(t), "ties": tieStore(t)} {
		first, last, _ := s.TimeBounds()
		split := first.Add(last.Sub(first) / 2)
		windows := []struct {
			name                       string
			from, to, evalFrom, evalTo time.Time
		}{
			{"full", time.Time{}, time.Time{}, time.Time{}, time.Time{}},
			{"half", time.Time{}, split, split, time.Time{}},
		}
		for _, w := range windows {
			all, _, err := referenceBlacklist(s, w.from, w.to, 0)
			if err != nil {
				t.Fatal(err)
			}
			caps := []int{0, 1, 10, len(all) / 2}
			if name == "ties" {
				// Every cut of the ranking: inside each (occurrences,
				// families) tie and across the IPv4/IPv6 bit-length leg.
				caps = caps[:0]
				for c := 0; c <= len(all)+1; c++ {
					caps = append(caps, c)
				}
			}
			for _, maxSize := range caps {
				label := fmt.Sprintf("%s/%s/max%d", name, w.name, maxSize)
				want, members, err := referenceBlacklist(s, w.from, w.to, maxSize)
				if err != nil {
					t.Fatal(err)
				}
				bl, err := BuildBlacklist(s, w.from, w.to, maxSize)
				if err != nil {
					t.Fatal(err)
				}
				if bl.Len() != len(want) {
					t.Fatalf("%s: %d entries, reference %d", label, bl.Len(), len(want))
				}
				for i, e := range bl.Entries().All() {
					if e != want[i] {
						t.Fatalf("%s: entry %d = %+v, reference %+v", label, i, e, want[i])
					}
				}
				for id := 0; id < s.BotDense().NumIDs(); id++ {
					if ip := s.BotDense().IP(int32(id)); bl.Contains(ip) != members[ip] {
						t.Fatalf("%s: Contains(%s) = %v, reference %v", label, ip, bl.Contains(ip), members[ip])
					}
				}
				wantEv, err := referenceEvaluate(s, members, w.evalFrom, w.evalTo)
				if err != nil {
					t.Fatal(err)
				}
				for how, list := range map[string]*Blacklist{"built": bl, "truncated": mustBlacklist(t, s, w.from, w.to).Truncate(maxSize)} {
					ev, err := EvaluateBlacklist(s, list, w.evalFrom, w.evalTo)
					if err != nil {
						t.Fatal(err)
					}
					if ev != wantEv {
						t.Errorf("%s (%s): evaluation %+v, reference %+v", label, how, ev, wantEv)
					}
				}
			}
		}
	}
}

func mustBlacklist(t *testing.T, s *dataset.Store, from, to time.Time) *Blacklist {
	t.Helper()
	bl, err := BuildBlacklist(s, from, to, 0)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

// TestEvaluateBlacklistForeignStore covers the one path that still
// resolves entries by address: a list built on store A replayed against
// a store B that numbers the same bots differently (attacks in another
// order) and holds bots A never saw.
func TestEvaluateBlacklistForeignStore(t *testing.T) {
	ip := func(s string) netip.Addr { return netip.MustParseAddr(s) }
	mk := func(id dataset.DDoSID, start time.Time, bots ...string) *dataset.Attack {
		a := mkAttack(id, dataset.Dirtjumper, 1, "5.5.5.1", start, time.Hour)
		a.BotIPs = nil
		for _, b := range bots {
			a.BotIPs = append(a.BotIPs, ip(b))
		}
		return a
	}
	a := mustStore(t, []*dataset.Attack{
		mk(1, t0, "9.0.0.1", "9.0.0.2", "2001:db8::1"),
		mk(2, t0.Add(time.Hour), "9.0.0.2", "9.0.0.3"),
		mk(3, t0.Add(2*time.Hour), "9.0.0.3", "9.0.0.4", "9.0.0.2"),
	})
	// B sees 9.0.0.4 first and 9.0.0.1 last, so every shared bot has a
	// different dense id than in A; 7.x bots exist only in B.
	b := mustStore(t, []*dataset.Attack{
		mk(11, t0, "9.0.0.4", "7.0.0.1", "9.0.0.3"),
		mk(12, t0.Add(time.Hour), "7.0.0.2", "2001:db8::1", "9.0.0.2", "7.0.0.3"),
		mk(13, t0.Add(2*time.Hour), "9.0.0.1", "7.0.0.1"),
	})
	if idA, _ := a.BotDense().ID(ip("9.0.0.1")); idA != 0 {
		t.Fatalf("store A numbers 9.0.0.1 as %d, want 0", idA)
	}
	if idB, _ := b.BotDense().ID(ip("9.0.0.1")); idB == 0 {
		t.Fatal("store B numbers 9.0.0.1 as A does; the test needs differing ids")
	}
	for _, maxSize := range []int{0, 2} {
		_, members, err := referenceBlacklist(a, time.Time{}, time.Time{}, maxSize)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceEvaluate(b, members, time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateBlacklist(b, mustBlacklist(t, a, time.Time{}, time.Time{}).Truncate(maxSize), time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("max %d: foreign-store evaluation %+v, reference %+v", maxSize, got, want)
		}
	}
	if _, err := EvaluateBlacklist(b, &Blacklist{}, time.Time{}, time.Time{}); err == nil || err.Error() != "core: empty blacklist" {
		t.Errorf("zero blacklist on a foreign store: err = %v, want the empty-blacklist error", err)
	}
	if (&Blacklist{}).Contains(ip("9.0.0.1")) {
		t.Error("zero blacklist contains an address")
	}
}

// TestSameStoreDefenseNeverResolvesAddresses pins the point of the rank
// layout: building, truncating and replaying a list on one store stays
// in dense-id space, so the index's address -> id map (28+ bytes a bot,
// built by the first BotIndex.ID call) is never paid for.
func TestSameStoreDefenseNeverResolvesAddresses(t *testing.T) {
	s, err := synth.GenerateStore(synth.Config{Seed: 7, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	first, last, _ := s.TimeBounds()
	split := first.Add(last.Sub(first) / 2)
	bl, err := BuildBlacklist(s, time.Time{}, split, 0)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, list := range []*Blacklist{bl, bl.Truncate(100)} {
		if _, err := EvaluateBlacklist(s, list, split, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Two replays allocate their per-attack fractions and nothing sized
	// by the bot population.
	budget := uint64(2*8*s.NumAttacks() + 4096)
	if reverseMap := uint64(28 * s.BotDense().NumIDs()); budget >= reverseMap {
		t.Fatalf("workload too small to tell: budget %d B, reverse map >= %d B", budget, reverseMap)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("same-store replays allocated %d B, budget %d B: something sized by the bot population was built", got, budget)
	}
}
