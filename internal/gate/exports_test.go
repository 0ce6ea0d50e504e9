package gate

// exportAudit is every exported name under internal/ that no non-test
// code uses, and every struct field no non-test code reads, that stays
// anyway, keyed as deadexport names it (package.Name, package.Type.Method
// or package.Type.Field), with the reason it stays. A name only its own
// package's tests read moves into a _test.go file there; a row is for a
// name a test elsewhere, a bench or a facade Example needs.
var exportAudit = map[string]string{
	"cluster.Local.Shards":                 "the admin and frame-cap tests read each shard's Applied count through it; StartLocal builds the shards, so no test can hold them otherwise",
	"core.Blacklist.Entries":               "TestBlacklistMatchesReference checks the radix ranking through it; the facade's Blacklist carries it",
	"core.DispersionPoint.AttackID":        "TestOracleDispersion aligns the scan's points with the oracle's by it",
	"geo.Dispersion":                       "the point-list reference the core dispersion scan, botnet's formations and the ablation bench are held to",
	"geo.MeanDistanceToCenter":             "BenchmarkAblationDispersion's alternative metric",
	"synth.ScenarioBuilder.AddProfile":     "ExampleNewScenario chains it (facade ScenarioBuilder)",
	"synth.ScenarioBuilder.AddPaperFamily": "ExampleNewScenario chains it (facade ScenarioBuilder)",
	"synth.ScenarioBuilder.Build":          "ExampleNewScenario chains it (facade ScenarioBuilder)",
}

// paperlitAudit is every literal outside internal/published that equals
// a published value and is not a copy of it, keyed as paperlit names it
// (<import path>:<literal as written>), with what the literal is instead.
var paperlitAudit = map[string]string{
	"botscope/internal/synth:345": "Colddeath's weight on Pakistan among its top-5 victim countries (Table V), not Table II's Nitol TCP count",
}
