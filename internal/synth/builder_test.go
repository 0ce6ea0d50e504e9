package synth

import (
	"testing"
	"time"

	"botscope/internal/botnet"
	"botscope/internal/dataset"
)

func TestScenarioBuilderPaperFamilies(t *testing.T) {
	store, err := NewScenario(3).
		AddPaperFamily(dataset.Dirtjumper, 0.01).
		AddPaperFamily(dataset.Pandora, 0.01).
		AddCollaboration(botnet.InterCollab{
			Initiator: dataset.Dirtjumper, Partner: dataset.Pandora,
			Pairs: 2, MatchDuration: true,
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(store.Families()); got != 2 {
		t.Errorf("families = %d, want 2", got)
	}
	if store.NumAttacks() < 200 {
		t.Errorf("attacks = %d, want hundreds", store.NumAttacks())
	}
}

func TestScenarioBuilderErrors(t *testing.T) {
	if _, err := NewScenario(1).Build(); err == nil {
		t.Error("empty scenario accepted")
	}
	if _, err := NewScenario(1).AddPaperFamily("mirai", 0.1).Build(); err == nil {
		t.Error("unknown paper family accepted")
	}
	bad := &botnet.Profile{Family: dataset.YZF} // fails validation
	if _, err := NewScenario(1).AddProfile(bad).Build(); err == nil {
		t.Error("invalid profile accepted")
	}
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := NewScenario(1).WithWindow(start, start).Build(); err == nil {
		t.Error("empty window accepted")
	}
	// The first error wins and is sticky across later calls.
	b := NewScenario(1).AddPaperFamily("mirai", 0.1).AddPaperFamily(dataset.Pandora, 0.1)
	if _, err := b.Build(); err == nil {
		t.Error("sticky error lost")
	}
}

func TestScenarioBuilderCustomWindow(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 2, 0)
	store, err := NewScenario(4).
		WithWindow(start, end).
		AddPaperFamily(dataset.Darkshell, 0.02).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	first, _, ok := store.TimeBounds()
	if !ok {
		t.Fatal("empty store")
	}
	if first.Before(start) {
		t.Errorf("first attack %v before custom window start %v", first, start)
	}
}

func TestMiraiLikeScenario(t *testing.T) {
	profile := MiraiLikeProfile(300)
	if err := profile.Validate(); err != nil {
		t.Fatal(err)
	}
	store, err := NewScenario(7).
		AddProfile(profile).
		AddPaperFamily(dataset.Dirtjumper, 0.01).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rows := func(f dataset.Family) []dataset.AttackView {
		var out []dataset.AttackView
		for _, row := range store.RowsByFamily(f) {
			out = append(out, store.AttackAt(int(row)))
		}
		return out
	}
	mirai := rows("mirailike")
	if len(mirai) != 300 {
		t.Fatalf("mirailike attacks = %d, want 300", len(mirai))
	}
	// The IoT profile's signature: much larger magnitudes than the 2013
	// families.
	var miraiMag, djMag float64
	for _, a := range mirai {
		miraiMag += float64(a.Magnitude())
	}
	miraiMag /= float64(len(mirai))
	dj := rows(dataset.Dirtjumper)
	for _, a := range dj {
		djMag += float64(a.Magnitude())
	}
	djMag /= float64(len(dj))
	if miraiMag < 2*djMag {
		t.Errorf("mirailike mean magnitude %v not well above dirtjumper %v", miraiMag, djMag)
	}
	// Volumetric transports dominate.
	udpSyn := 0
	for _, a := range mirai {
		if a.Category() == dataset.CategoryUDP || a.Category() == dataset.CategorySYN {
			udpSyn++
		}
	}
	if frac := float64(udpSyn) / float64(len(mirai)); frac < 0.7 {
		t.Errorf("volumetric share = %v, want ~0.8", frac)
	}
	// US is the top victim country.
	counts := make(map[string]int)
	for _, a := range mirai {
		counts[a.TargetCountry()]++
	}
	for cc, n := range counts {
		if cc != "US" && n > counts["US"] {
			t.Errorf("top victim %s (%d) beats US (%d)", cc, n, counts["US"])
		}
	}
}

func TestMiraiLikeMinimumAttacks(t *testing.T) {
	p := MiraiLikeProfile(1)
	if p.TotalAttacks() < 20 {
		t.Errorf("total attacks = %d, want floor of 20", p.TotalAttacks())
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}
