package botscope_test

import (
	"fmt"
	"log"

	"botscope"
)

// ExampleGenerate shows the two-line path from nothing to an analyzable
// workload. Generation is deterministic: the same seed and scale always
// produce the same attacks.
func ExampleGenerate() {
	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 42, Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	a := botscope.NewAnalyzer(store)
	daily, err := a.DailyDistribution()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attacks: %d, peak day: %s\n", store.NumAttacks(), daily.MaxDay.Format("2006-01-02"))
	// Output:
	// attacks: 1044, peak day: 2012-08-29
}

// ExampleAnalyzer_Collaborations detects the paper's §V collaborative
// attacks: distinct botnets hitting one victim simultaneously with matched
// durations.
func ExampleAnalyzer_Collaborations() {
	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 42, Scale: 0.02})
	if err != nil {
		log.Fatal(err)
	}
	st := botscope.NewAnalyzer(store).Collaborations()
	fmt.Printf("intra-family: %d, inter-family: %d\n", st.TotalIntra, st.TotalInter)
	// Output:
	// intra-family: 28, inter-family: 5
}

// ExampleNewScenario composes a custom what-if workload: a Mirai-like IoT
// family alongside a calibrated 2013 family.
func ExampleNewScenario() {
	store, err := botscope.NewScenario(42).
		AddProfile(botscope.MiraiLikeProfile(100)).
		AddPaperFamily(botscope.Dirtjumper, 0.005).
		Build()
	if err != nil {
		log.Fatal(err)
	}
	for _, fc := range store.FamilyCounts() {
		fmt.Printf("%s: %d attacks\n", fc.Family, fc.Attacks)
	}
	// Output:
	// dirtjumper: 173 attacks
	// mirailike: 100 attacks
}
