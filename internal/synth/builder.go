package synth

import (
	"fmt"

	"botscope/internal/botnet"
	"botscope/internal/dataset"
	"botscope/internal/geo"
)

// ScenarioBuilder composes custom workloads: paper families, modified
// families, or entirely new ones (the paper's §II-C discussion argues its
// findings generalize to newer botnets such as Mirai — this builder lets a
// user test such what-if scenarios).
//
// The zero value is not usable; start with NewScenario.
type ScenarioBuilder struct {
	seed     int64
	profiles []*botnet.Profile
	err      error
}

// NewScenario starts a builder over the paper's observation window.
func NewScenario(seed int64) *ScenarioBuilder {
	return &ScenarioBuilder{seed: seed}
}

// AddProfile appends a custom family profile.
func (b *ScenarioBuilder) AddProfile(p *botnet.Profile) *ScenarioBuilder {
	if b.err != nil {
		return b
	}
	if err := p.Validate(); err != nil {
		b.err = err
		return b
	}
	b.profiles = append(b.profiles, p)
	return b
}

// AddPaperFamily appends one of the calibrated paper families at the given
// scale.
func (b *ScenarioBuilder) AddPaperFamily(f dataset.Family, scale float64) *ScenarioBuilder {
	if b.err != nil {
		return b
	}
	for _, p := range Profiles(scale) {
		if p.Family == f {
			b.profiles = append(b.profiles, p)
			return b
		}
	}
	b.err = fmt.Errorf("synth: %q is not a calibrated paper family", f)
	return b
}

// Build runs the simulation and indexes the workload.
func (b *ScenarioBuilder) Build() (*dataset.Store, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.profiles) == 0 {
		return nil, fmt.Errorf("synth: scenario has no families")
	}
	db := geo.NewDB(geo.DBConfig{Seed: b.seed})
	sim, err := botnet.New(botnet.Config{Seed: b.seed, Window: botnet.PaperWindow()}, db, b.profiles)
	if err != nil {
		return nil, fmt.Errorf("synth: build scenario: %w", err)
	}
	out, err := sim.Run()
	if err != nil {
		return nil, fmt.Errorf("synth: run scenario: %w", err)
	}
	store, err := out.Store()
	if err != nil {
		return nil, fmt.Errorf("synth: index scenario: %w", err)
	}
	return store, nil
}

// MiraiLikeProfile sketches an IoT botnet in the mold of Mirai (2016):
// enormous bot populations recruited from embedded devices across many
// countries, very large per-attack magnitudes, short high-rate strikes,
// and volumetric transports — the §II-C discussion's test case for whether
// the paper's findings generalize beyond 2013-era families.
//
// attacks scales the family's activity; a few hundred suffices for
// shape analyses.
func MiraiLikeProfile(attacks int) *botnet.Profile {
	if attacks < 20 {
		attacks = 20
	}
	return &botnet.Profile{
		Family:          dataset.Family("mirailike"),
		ActiveStartFrac: 0.5, ActiveEndFrac: 1, // bursts onto the scene late
		Protocols: []botnet.ProtocolShare{
			// Mirai floods are volumetric (UDP/SYN/ACK) with some HTTP.
			{Category: dataset.CategoryUDP, Count: attacks * 5 / 10},
			{Category: dataset.CategorySYN, Count: attacks * 3 / 10},
			{Category: dataset.CategoryHTTP, Count: attacks - attacks*5/10 - attacks*3/10},
		},
		Botnets: 6,
		TargetCountries: []botnet.CountryShare{
			// The Dyn/Krebs-era victims: US infrastructure first.
			{CC: "US", Weight: 60}, {CC: "FR", Weight: 15},
			{CC: "DE", Weight: 10}, {CC: "GB", Weight: 8},
			{CC: "NL", Weight: 7},
		},
		TargetCountryCount: 12,
		TargetPoolSize:     maxInt(attacks/4, 8),
		TargetZipf:         1.3, // strongly concentrated on a few marquee victims
		// Short, violent strikes.
		DurationMedianSec: 600, DurationSigma: 1.2, DurationMaxSec: 86400,
		Intervals: botnet.IntervalModel{
			Modes: []botnet.IntervalMode{
				{Weight: 0.35, MedianSec: 0},
				{Weight: 0.45, MedianSec: 900, Sigma: 0.6},
				{Weight: 0.20, MedianSec: 14400, Sigma: 0.8},
			},
			MaxSec: 30 * 24 * 3600,
		},
		// IoT devices concentrate where cheap cameras/DVRs do.
		SourceCountries: []botnet.CountryShare{
			{CC: "BR", Weight: 16}, {CC: "VN", Weight: 14}, {CC: "CN", Weight: 12},
			{CC: "TR", Weight: 9}, {CC: "KR", Weight: 8}, {CC: "IN", Weight: 8},
			{CC: "RU", Weight: 6}, {CC: "US", Weight: 5}, {CC: "MX", Weight: 5},
			{CC: "ID", Weight: 5},
		},
		BotPoolSize:     maxInt(attacks*120, 3000), // vast device populations
		MagnitudeMedian: 120, MagnitudeSigma: 0.7, MagnitudeMax: 280,
		NewCountryPerWeek: 1.0, // rapid global spread
		SymmetricProb:     0.3,
		// Sources span continents: dispersion far beyond the 2013 families.
		DispersionTargetKm: 6000,
		IntraCollab:        maxInt(attacks/25, 1),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
