package core

import (
	"net/netip"
	"testing"
	"time"

	"botscope/internal/dataset"
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
	entries := bl.Entries()
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
	if capped.Len() != 1 || capped.Entries()[0].IP != heavy {
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

func TestPlanMitigation(t *testing.T) {
	// Target hit every 2 hours, five times.
	var attacks []*dataset.Attack
	for i := 0; i < 5; i++ {
		attacks = append(attacks, mkAttack(dataset.DDoSID(i+1), dataset.Dirtjumper, 1,
			"5.5.5.1", t0.Add(time.Duration(i)*2*time.Hour), 30*time.Minute))
	}
	// A one-off target that must not appear.
	attacks = append(attacks, mkAttack(99, dataset.Pandora, 2, "5.5.5.9", t0, time.Hour))
	s := mustStore(t, attacks)

	plans := PlanMitigation(s, 3)
	if len(plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(plans))
	}
	p := plans[0]
	if p.Target != "5.5.5.1" || p.HistoryGaps != 4 {
		t.Errorf("plan = %+v", p)
	}
	lastStart := t0.Add(8 * time.Hour)
	if !p.ExpectedNext.Equal(lastStart.Add(2 * time.Hour)) {
		t.Errorf("ExpectedNext = %v, want last start + median gap (2h)", p.ExpectedNext)
	}
	if !p.ArmFrom.Before(p.ArmUntil) {
		t.Errorf("arm window inverted: %v .. %v", p.ArmFrom, p.ArmUntil)
	}
	if p.ArmFrom.After(p.ExpectedNext) {
		t.Errorf("arm window starts after the expected attack")
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

	plans := PlanMitigation(s, 5)
	if len(plans) == 0 {
		t.Fatal("no mitigation plans for repeat targets")
	}
	for _, p := range plans[:min(5, len(plans))] {
		if p.ArmFrom.After(p.ArmUntil) {
			t.Errorf("plan window inverted for %s", p.Target)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
		for i, e := range got.Entries() {
			if e != rebuilt.Entries()[i] {
				t.Fatalf("cap %d: entry %d differs: %+v vs %+v", cap, i, e, rebuilt.Entries()[i])
			}
			if !got.Contains(e.IP) {
				t.Fatalf("cap %d: member set missing ranked entry %s", cap, e.IP)
			}
		}
	}
	if full.Truncate(0) != full || full.Truncate(full.Len()) != full {
		t.Error("no-op Truncate should return the receiver")
	}
}

// TestBlacklistTruncateClipsCapacity guards the aliasing fix: the truncated
// list shares the receiver's backing array, so its entry slice must have
// its capacity clipped — an append through the short view would otherwise
// overwrite the receiver's tail entries in place.
func TestBlacklistTruncateClipsCapacity(t *testing.T) {
	s := synthWorkload(t)
	full, err := BuildBlacklist(s, time.Time{}, time.Time{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Len() < 2 {
		t.Skip("workload too small to truncate")
	}
	keep := full.Len() / 2
	short := full.Truncate(keep)
	if got := cap(short.Entries()); got != keep {
		t.Fatalf("Truncate(%d) entries cap = %d, want %d (capacity must be clipped)", keep, got, keep)
	}
	tail := full.Entries()[keep]
	_ = append(short.Entries(), BlacklistEntry{}) // the clipped append must reallocate
	if full.Entries()[keep] != tail {
		t.Fatalf("append through truncated view clobbered receiver entry %d", keep)
	}
}
