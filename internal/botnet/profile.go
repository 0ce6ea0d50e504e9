package botnet

import (
	"fmt"
	"time"

	"botscope/internal/dataset"
)

// ProtocolShare assigns an exact attack count to one category, mirroring
// the per-(family, protocol) rows of the paper's Table II.
type ProtocolShare struct {
	Category dataset.Category
	Count    int
}

// CountryShare gives a target or source country a selection weight. For
// target countries the weights are the Table V counts.
type CountryShare struct {
	CC     string
	Weight float64
}

// Profile is the full behavioural parameterization of one botnet family.
// internal/synth builds ten of these calibrated to the paper.
type Profile struct {
	Family dataset.Family

	// ActiveStartFrac/ActiveEndFrac bound the family's activity window as
	// fractions of the overall observation window. Blackenergy, for
	// example, is active for only about a third of the period.
	ActiveStartFrac float64
	ActiveEndFrac   float64

	// Protocols fixes the exact per-category attack counts (Table II).
	// Their sum is the family's total attack count.
	Protocols []ProtocolShare

	// Botnets is the number of generations (distinct botnet IDs).
	Botnets int

	// TargetCountries weights victim-country selection (Table V); the
	// generator tops the list up with extra countries until
	// TargetCountryCount distinct countries are reachable.
	TargetCountries    []CountryShare
	TargetCountryCount int
	// TargetPoolSize is the number of distinct victim IPs the family
	// cycles through; repeat selection is Zipf-concentrated.
	TargetPoolSize int
	// TargetZipf is the Zipf exponent for repeat-victim concentration.
	TargetZipf float64

	// DurationMedianSec/DurationSigma/DurationMaxSec parameterize the
	// lognormal attack-duration law.
	DurationMedianSec float64
	DurationSigma     float64
	DurationMaxSec    float64

	// Intervals is the inter-attack gap mixture.
	Intervals IntervalModel

	// SourceCountries weights bot placement (geolocation affinity).
	SourceCountries []CountryShare
	// BotPoolSize is the number of distinct bot IPs the family commands.
	BotPoolSize int
	// MagnitudeMedian/MagnitudeSigma give the lognormal bots-per-attack law.
	MagnitudeMedian float64
	MagnitudeSigma  float64
	MagnitudeMax    float64
	// NewCountryPerWeek is the expected number of previously unused
	// countries recruited per week (the small right-hand bars of Fig 8).
	NewCountryPerWeek float64

	// SymmetricProb is the fraction of attacks whose bot formation is
	// geographically symmetric (dispersion ~ 0); 76.7% for Pandora and
	// 89.5% for Blackenergy in the paper.
	SymmetricProb float64
	// DispersionTargetKm is the per-family mean of the signed-sum
	// geolocation dispersion for asymmetric formations (Figs 10-11 of the
	// paper for Pandora and Blackenergy, published.Dispersions). The
	// generator picks offset clusters whose
	// predicted dispersion lands near this value.
	DispersionTargetKm float64

	// IntraCollab is the number of intra-family collaboration events to
	// stage (same target, same start, matched durations — Table VI).
	IntraCollab int
	// ConsecutiveChains is the number of multistage attack chains
	// (back-to-back attacks on one target, §V-B).
	ConsecutiveChains int
	// ChainLengthMean is the mean chain length.
	ChainLengthMean float64
	// RecordChainLength, when positive, forces the family's first chain to
	// exactly this length (Ddoser's record chain of 22 strikes).
	RecordChainLength int
}

// TotalAttacks returns the family's calibrated attack count.
func (p *Profile) TotalAttacks() int {
	var n int
	for _, ps := range p.Protocols {
		n += ps.Count
	}
	return n
}

// Validate checks profile consistency before simulation.
func (p *Profile) Validate() error {
	if p.Family == "" {
		return fmt.Errorf("botnet: profile without family")
	}
	if p.TotalAttacks() <= 0 {
		return fmt.Errorf("botnet: profile %s has no attacks", p.Family)
	}
	if p.ActiveStartFrac < 0 || p.ActiveEndFrac > 1 || p.ActiveStartFrac >= p.ActiveEndFrac {
		return fmt.Errorf("botnet: profile %s has invalid activity window [%v, %v]",
			p.Family, p.ActiveStartFrac, p.ActiveEndFrac)
	}
	if p.Botnets <= 0 {
		return fmt.Errorf("botnet: profile %s has no botnets", p.Family)
	}
	if len(p.TargetCountries) == 0 {
		return fmt.Errorf("botnet: profile %s has no target countries", p.Family)
	}
	if p.TargetPoolSize <= 0 {
		return fmt.Errorf("botnet: profile %s has no target pool", p.Family)
	}
	if len(p.SourceCountries) == 0 {
		return fmt.Errorf("botnet: profile %s has no source countries", p.Family)
	}
	if p.BotPoolSize <= 0 {
		return fmt.Errorf("botnet: profile %s has no bot pool", p.Family)
	}
	if p.DurationMedianSec <= 0 || p.DurationSigma <= 0 {
		return fmt.Errorf("botnet: profile %s has invalid duration law", p.Family)
	}
	if p.MagnitudeMedian < 1 {
		return fmt.Errorf("botnet: profile %s has magnitude median < 1", p.Family)
	}
	if len(p.Intervals.Modes) == 0 {
		return fmt.Errorf("botnet: profile %s has no interval modes", p.Family)
	}
	if p.SymmetricProb < 0 || p.SymmetricProb > 1 {
		return fmt.Errorf("botnet: profile %s has invalid symmetric probability %v", p.Family, p.SymmetricProb)
	}
	return nil
}

// Window is the observation window of a simulation.
type Window struct {
	Start time.Time
	End   time.Time
}

// Duration returns the window length.
func (w Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// PaperWindow is the paper's observation period: 2012-08-29 through
// 2013-03-24, 207 days.
func PaperWindow() Window {
	return Window{
		Start: time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2013, 3, 24, 0, 0, 0, 0, time.UTC),
	}
}
