package core

import (
	"testing"
	"time"

	"botscope/internal/dataset"
)

// chainOn builds n back-to-back attacks on target with the given gap.
func chainOn(startID dataset.DDoSID, f dataset.Family, target string, n int, gap time.Duration) []*dataset.Attack {
	var out []*dataset.Attack
	t := t0
	for i := 0; i < n; i++ {
		a := mkAttack(startID+dataset.DDoSID(i), f, 1, target, t, time.Minute)
		out = append(out, a)
		t = a.End.Add(gap)
	}
	return out
}

func TestDetectChains(t *testing.T) {
	attacks := chainOn(1, dataset.Ddoser, "5.5.5.1", 5, 5*time.Second)
	// Unrelated attack on the same target much later.
	attacks = append(attacks, mkAttack(100, dataset.Ddoser, 1, "5.5.5.1", t0.Add(24*time.Hour), time.Minute))
	s := mustStore(t, attacks)
	chains := DetectChains(s, 2)
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	c := chains[0]
	if c.Length() != 5 {
		t.Errorf("chain length = %d, want 5", c.Length())
	}
	if c.Family != dataset.Ddoser {
		t.Errorf("chain family = %s, want ddoser", c.Family)
	}
	if len(c.Gaps) != 4 {
		t.Errorf("gaps = %d, want 4", len(c.Gaps))
	}
	for _, g := range c.Gaps {
		if g != 5 {
			t.Errorf("gap = %v, want 5", g)
		}
	}
}

func TestDetectChainsOverlapCounts(t *testing.T) {
	// The second attack starts 30 s BEFORE the first ends: still a chain
	// (the paper allows a 60 s overlap margin).
	a1 := mkAttack(1, dataset.Nitol, 1, "5.5.5.1", t0, 2*time.Minute)
	a2 := mkAttack(2, dataset.Nitol, 1, "5.5.5.1", a1.End.Add(-30*time.Second), 2*time.Minute)
	s := mustStore(t, []*dataset.Attack{a1, a2})
	chains := DetectChains(s, 2)
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1 (overlap within margin)", len(chains))
	}
	if chains[0].Gaps[0] != -30 {
		t.Errorf("gap = %v, want -30", chains[0].Gaps[0])
	}
}

func TestDetectChainsBreaksOnBigGap(t *testing.T) {
	attacks := chainOn(1, dataset.Darkshell, "5.5.5.1", 3, 10*time.Second)
	// Next group after a 10-minute silence.
	later := chainOn(10, dataset.Darkshell, "5.5.5.1", 3, 10*time.Second)
	offset := later[0].Start.Add(10 * time.Minute).Sub(later[0].Start) // rebase
	for _, a := range later {
		a.Start = a.Start.Add(3*time.Minute + offset)
		a.End = a.End.Add(3*time.Minute + offset)
	}
	s := mustStore(t, append(attacks, later...))
	chains := DetectChains(s, 2)
	if len(chains) != 2 {
		t.Fatalf("chains = %d, want 2 (split by the silence)", len(chains))
	}
}

func TestAnalyzeChains(t *testing.T) {
	var attacks []*dataset.Attack
	attacks = append(attacks, chainOn(1, dataset.Ddoser, "5.5.5.1", 22, 3*time.Second)...)
	attacks = append(attacks, chainOn(100, dataset.Darkshell, "5.5.5.2", 4, 20*time.Second)...)
	s := mustStore(t, attacks)
	st := AnalyzeChains(s)
	if len(st.Chains) != 2 {
		t.Fatalf("chains = %d, want 2", len(st.Chains))
	}
	if st.Longest == nil || st.Longest.Length() != 22 {
		t.Errorf("longest chain = %v, want ddoser's 22", st.Longest)
	}
	if st.Longest.Family != dataset.Ddoser {
		t.Errorf("longest chain family = %s, want ddoser", st.Longest.Family)
	}
	if st.FracWithin10s <= st.FracWithin30s-1 {
		t.Errorf("gap fractions inconsistent: %v vs %v", st.FracWithin10s, st.FracWithin30s)
	}
	// 21 three-second gaps + 3 twenty-second gaps: within-10s = 21/24.
	if st.FracWithin10s < 0.8 || st.FracWithin10s > 0.9 {
		t.Errorf("FracWithin10s = %v, want 21/24", st.FracWithin10s)
	}
}

func TestAnalyzeChainsEmpty(t *testing.T) {
	s := mustStore(t, []*dataset.Attack{
		mkAttack(1, dataset.Optima, 1, "5.5.5.1", t0, time.Hour),
	})
	st := AnalyzeChains(s)
	if len(st.Chains) != 0 || st.Longest != nil {
		t.Errorf("chains on single attack = %+v", st)
	}
}

func TestGapCDFAndEvents(t *testing.T) {
	attacks := chainOn(1, dataset.Nitol, "5.5.5.1", 3, 5*time.Second)
	s := mustStore(t, attacks)
	chains := DetectChains(s, 2)
	cdf := GapCDF(chains)
	if cdf.N() != 2 {
		t.Fatalf("CDF N = %d, want 2", cdf.N())
	}
	if p := cdf.Eval(10); p != 1 {
		t.Errorf("CDF(10s) = %v, want 1", p)
	}
	events := ChainEvents(s, chains)
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Start.Before(events[i-1].Start) {
			t.Error("events not time ordered")
		}
	}
}

func TestChainsOnSynthWorkload(t *testing.T) {
	s := synthWorkload(t)
	st := AnalyzeChains(s)
	if len(st.Chains) == 0 {
		t.Fatal("no multistage chains detected in synthetic workload")
	}
	// §V-B: only the four chaining families (plus incidental short chains
	// from concurrent streams are possible but the leaders must be right).
	if len(st.Families) == 0 {
		t.Fatal("no chain families")
	}
	leaders := map[dataset.Family]bool{
		dataset.Darkshell: true, dataset.Ddoser: true,
		dataset.Dirtjumper: true, dataset.Nitol: true,
	}
	if !leaders[st.Families[0]] {
		t.Errorf("top chain family = %s, want one of darkshell/ddoser/dirtjumper/nitol", st.Families[0])
	}
	// Fig 17 landmarks: most gaps are seconds-scale.
	if st.FracWithin30s < 0.5 {
		t.Errorf("FracWithin30s = %v, want > 0.5 (paper ~0.8)", st.FracWithin30s)
	}
	if st.FracWithin10s > st.FracWithin30s {
		t.Errorf("gap CDF not monotone: %v > %v", st.FracWithin10s, st.FracWithin30s)
	}
	// The longest chain is long (the paper's record is 22).
	if st.Longest.Length() < 5 {
		t.Errorf("longest chain = %d, want >= 5", st.Longest.Length())
	}
}
