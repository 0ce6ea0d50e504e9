// Quickstart: generate a scaled-down synthetic workload and print the
// overview statistics of the paper's Section III — protocol mix, daily
// density, interval and duration summaries.
package main

import (
	"fmt"
	"log"

	"botscope"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Scale 0.05 generates ~2,500 attacks in a couple of seconds; the same
	// seed always reproduces the same workload.
	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 7, Scale: 0.05})
	if err != nil {
		return fmt.Errorf("generate workload: %w", err)
	}
	a := botscope.NewAnalyzer(store)

	sum := a.Summary()
	fmt.Printf("workload: %d attacks by %d botnets from %d bot IPs against %d targets\n",
		sum.Attacks, sum.Botnets, sum.BotIPs, sum.TargetIPs)

	fmt.Println("\nattack types (Fig 1):")
	for _, pc := range a.ProtocolBreakdown() {
		fmt.Printf("  %-13s %6d\n", pc.Category, pc.Count)
	}

	daily, err := a.DailyDistribution()
	if err != nil {
		return err
	}
	fmt.Printf("\ndaily density (Fig 2): avg %.1f attacks/day, peak %d on %s (%s)\n",
		daily.Average, daily.Max, daily.MaxDay.Format("2006-01-02"), daily.MaxDominantFamily)

	intervals, err := a.AnalyzeIntervals(a.AllIntervals())
	if err != nil {
		return err
	}
	fmt.Printf("\nintervals (Fig 3): %.0f%% concurrent (<60s), median %.0fs, P80 %.0fs\n",
		intervals.SimultaneousFrac*100, intervals.Median, intervals.P80)

	durations, err := a.AnalyzeDurations(a.Durations())
	if err != nil {
		return err
	}
	fmt.Printf("durations (Fig 7): median %.0fs, mean %.0fs, %.0f%% under 4 hours\n",
		durations.Median, durations.Mean, durations.FracUnder4h*100)

	counts := make(map[botscope.Family]int)
	for _, fc := range store.FamilyCounts().All() {
		counts[fc.Family] = fc.Attacks
	}
	fmt.Println("\nmost active families:")
	for i, f := range botscope.ActiveFamilies() {
		if n := counts[f]; n > 0 && i < 10 {
			fmt.Printf("  %-12s %6d attacks\n", f, n)
		}
	}
	return nil
}
