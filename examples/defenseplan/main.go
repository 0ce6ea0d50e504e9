// Defenseplan: the paper's closing defense insight made operational.
// Train a bot blacklist on the first half of the observation window,
// measure how much of the second half's attack traffic it would have
// pre-blocked, and derive per-target high-alert windows from the
// inter-attack interval patterns (§III-D, §V).
package main

import (
	"fmt"
	"log"
	"time"

	"botscope"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 31, Scale: 0.1})
	if err != nil {
		return fmt.Errorf("generate workload: %w", err)
	}
	a := botscope.NewAnalyzer(store)

	first, last, ok := store.TimeBounds()
	if !ok {
		return fmt.Errorf("empty workload")
	}
	split := first.Add(last.Sub(first) / 2)

	// --- Blacklist: learn from the past, score on the future -----------
	for _, size := range []int{0, 5000, 1000} {
		bl, err := a.BuildBlacklist(time.Time{}, split, size)
		if err != nil {
			return err
		}
		ev, err := a.EvaluateBlacklist(bl, split, time.Time{})
		if err != nil {
			return err
		}
		label := "unbounded"
		if size > 0 {
			label = fmt.Sprintf("top-%d", size)
		}
		fmt.Printf("%-10s blacklist (%6d bots): blocks %.1f%% of future sources, blunts %.1f%% of future attacks\n",
			label, bl.Len(), ev.BotCoverage*100, ev.AttacksBlunted*100)
	}

	// Repeat offenders serving several families are prime candidates.
	bl, err := a.BuildBlacklist(time.Time{}, split, 10)
	if err != nil {
		return err
	}
	fmt.Println("\nmost prolific bots of the first half:")
	for _, e := range bl.Entries().All() {
		fmt.Printf("  %-16s %3d attacks, %d families\n", e.IP, e.Occurrences, e.Families)
	}

	// --- Mitigation windows ---------------------------------------------
	plans := a.PlanMitigation(6)
	fmt.Printf("\nmitigation windows for %d repeat targets; soonest to arm:\n", len(plans))
	for i, p := range plans {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-16s expect next attack ~%s, arm %s .. %s (%d gaps of history)\n",
			p.Target,
			p.ExpectedNext.Format("2006-01-02 15:04"),
			p.ArmFrom.Format("01-02 15:04"),
			p.ArmUntil.Format("01-02 15:04"),
			p.HistoryGaps)
	}
	fmt.Println("\nThe paper (§III-D): attacks are short (80% under 4h) and repeat within")
	fmt.Println("hours — only automatic, pre-armed defenses can react inside the window.")
	return nil
}
