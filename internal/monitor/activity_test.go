package monitor

import (
	"net/netip"
	"testing"
	"time"

	"botscope/internal/dataset"
)

// activityFixture: botnet 1 launches 3 attacks (2 targets), botnet 2 one.
func activityFixture(t *testing.T) *dataset.Store {
	t.Helper()
	mk := func(id dataset.DDoSID, botnet dataset.BotnetID, target string, offset time.Duration, bots int) *dataset.Attack {
		ips := make([]netip.Addr, bots)
		for i := range ips {
			ips[i] = netip.AddrFrom4([4]byte{9, 0, byte(id), byte(i + 1)})
		}
		return &dataset.Attack{
			ID: id, BotnetID: botnet, Family: dataset.Darkshell, Category: dataset.CategoryHTTP,
			TargetIP: netip.MustParseAddr(target),
			Start:    t0.Add(offset), End: t0.Add(offset + time.Hour),
			BotIPs:        ips,
			TargetCountry: "CN", TargetCity: "x", TargetOrg: "y", TargetASN: 1,
		}
	}
	attacks := []*dataset.Attack{
		mk(1, 1, "5.5.5.1", 0, 2),
		mk(2, 1, "5.5.5.1", 24*time.Hour, 5),
		mk(3, 1, "5.5.5.2", 48*time.Hour, 3),
		mk(4, 2, "5.5.5.3", 10*time.Hour, 4),
	}
	botnets := []*dataset.Botnet{
		{ID: 1, Family: dataset.Darkshell, Hash: "aaa111"},
		{ID: 2, Family: dataset.Darkshell, Hash: "bbb222"},
	}
	s, err := dataset.NewStore(attacks, botnets, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBotnetActivities(t *testing.T) {
	s := activityFixture(t)
	acts, err := NewCollector(s).BotnetActivities(dataset.Darkshell)
	if err != nil {
		t.Fatal(err)
	}
	if len(acts) != 2 {
		t.Fatalf("activities = %d, want 2", len(acts))
	}
	top := acts[0]
	if top.ID != 1 || top.Attacks != 3 {
		t.Errorf("top = %+v, want botnet 1 with 3 attacks", top)
	}
	if top.Hash != "aaa111" {
		t.Errorf("hash = %q, want aaa111", top.Hash)
	}
	if top.UniqueTargets != 2 {
		t.Errorf("unique targets = %d, want 2", top.UniqueTargets)
	}
	if top.PeakMagnitude != 5 {
		t.Errorf("peak magnitude = %d, want 5", top.PeakMagnitude)
	}
	if got := top.LastAttack.Sub(top.FirstAttack); got != 48*time.Hour {
		t.Errorf("first to last attack = %v, want 48h", got)
	}
	if _, err := NewCollector(s).BotnetActivities(dataset.Optima); err == nil {
		t.Error("family without attacks succeeded")
	}
}

func TestChurn(t *testing.T) {
	s := activityFixture(t)
	churn, err := NewCollector(s).Churn(dataset.Darkshell)
	if err != nil {
		t.Fatal(err)
	}
	if churn.Generations != 2 {
		t.Errorf("generations = %d, want 2", churn.Generations)
	}
	if churn.TopShare != 0.75 {
		t.Errorf("top share = %v, want 0.75", churn.TopShare)
	}
	if churn.P90Generations != 2 {
		t.Errorf("P90 generations = %d, want 2 (3/4 then 4/4)", churn.P90Generations)
	}
	if _, err := NewCollector(s).Churn(dataset.Nitol); err == nil {
		t.Error("family without attacks succeeded")
	}
}
