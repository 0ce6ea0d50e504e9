// Whatif: the paper's §II-C discussion argues its findings (geolocation
// affinity, collaboration patterns, interval structure) generalize to
// newer botnets such as Mirai. This example builds a custom scenario —
// a Mirai-like IoT family sharing the window with Dirtjumper — and checks
// which of the paper's analyses carry over.
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
	store, err := botscope.NewScenario(11).
		AddProfile(botscope.MiraiLikeProfile(600)).
		AddPaperFamily(botscope.Dirtjumper, 0.02).
		AddPaperFamily(botscope.Pandora, 0.02).
		Build()
	if err != nil {
		return fmt.Errorf("build scenario: %w", err)
	}
	a := botscope.NewAnalyzer(store)
	const mirai = botscope.Family("mirailike")

	fmt.Println("scenario: 2013-era families + a Mirai-like IoT botnet")
	counts := make(map[botscope.Family]int)
	for _, fc := range store.FamilyCounts().All() {
		counts[fc.Family] = fc.Attacks
	}
	for _, f := range []botscope.Family{mirai, botscope.Dirtjumper, botscope.Pandora} {
		mag, err := a.MagnitudeProfile(f)
		if err != nil {
			continue
		}
		fmt.Printf("  %-12s %5d attacks, median magnitude %4.0f bots\n", f, counts[f], mag.Median)
	}

	// 1. Geolocation affinity: does the IoT family's dispersion still show
	// the paper's regime structure?
	prof, err := a.DispersionProfile(mirai)
	if err != nil {
		return err
	}
	fmt.Printf("\nmirailike dispersion: %.0f%% symmetric, asymmetric mean %.0f km\n",
		prof.SymmetricFrac*100, prof.Asymmetric.Mean)

	// 2. Predictability: is the new family's source geometry forecastable
	// with the same models (paper §IV-A)?
	pred, err := a.PredictDispersion(mirai, botscope.PredictConfig{Order: botscope.ARIMAOrder{P: 1}})
	if err != nil {
		return err
	}
	fmt.Printf("mirailike dispersion forecast similarity: %.3f (paper band: 0.81-0.96)\n", pred.Similarity)

	// 3. Cross-family transfer: does a model trained on a 2013 family
	// predict the IoT family?
	tr, err := a.TransferPredict(botscope.Dirtjumper, mirai, botscope.ARIMAOrder{P: 1}, 60)
	if err != nil {
		return err
	}
	fmt.Printf("dirtjumper-trained model on mirailike: retention %.2f of native skill\n", tr.Retention)

	// 4. Target affinity: concentrated like Table V?
	tc := a.TargetCountries(mirai, 3)
	fmt.Printf("mirailike targets (%d countries):", tc.Countries)
	for _, cc := range tc.Top {
		fmt.Printf(" %s=%d", cc.CC, cc.Count)
	}
	fmt.Println()

	fmt.Println("\nconclusion: the characterization pipeline runs unchanged on the")
	fmt.Println("new family — the paper's methods, not just its numbers, transfer.")
	return nil
}
