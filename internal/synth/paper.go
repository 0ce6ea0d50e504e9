// Package synth calibrates the botnet simulator to the paper's published
// statistics and generates the synthetic stand-in for its proprietary
// 7-month workload.
//
// The targets that are published numbers come from internal/published,
// which the experiments check against too: Table II's per-(family,
// protocol) counts (summing to published.Attacks), Table V's Dirtjumper
// country count, Table VI's collaboration counts, the §III-C duration
// median, §IV's Pandora and Blackenergy dispersion, and §V's longest
// chain. What stays here are the tuned knobs: pool sizes sized to Table
// III's entity counts, the top-5 victim countries per family (Table V),
// the interval mixture (§III-B's simultaneous share and Figure 4's 6-7
// min / 20-40 min / 2-3 h modes), the duration sigma, the other
// families' dispersion, and the Dirtjumper burst on 2012-08-30.
//
// Every quantity scales down with Config.Scale so tests can run on small
// workloads while cmd/botreport regenerates the full-size dataset.
//
// Determinism is statically gated: the whole package sits inside the
// nodeterm analyzer's scope (see DESIGN.md §7), so the only legal
// randomness here is the per-family seeded *rand.Rand streams the
// simulator threads through internal/botnet, whose sampling inner loops
// allocate nothing (DESIGN.md §5b).
package synth

import (
	"fmt"
	"math"

	"botscope/internal/botnet"
	"botscope/internal/dataset"
	"botscope/internal/geo"
	"botscope/internal/published"
)

// Config parameterizes workload generation.
type Config struct {
	// Seed drives all randomness. The same seed reproduces the workload
	// byte for byte.
	Seed int64
	// Scale multiplies every count; 1.0 is paper scale (published.Attacks),
	// 0.05 is a fast test workload. Zero means 1.0.
	Scale float64
}

// scaled multiplies n by the scale, keeping at least min when n > 0.
func scaled(n int, scale float64, min int) int {
	if n <= 0 {
		return 0
	}
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// paperIntervals builds a family's interval mixture. zeroShare is the
// simultaneous probability; meanTarget loosely steers the nonzero body so
// the generator's window-fitting rescale stays near 1.
func paperIntervals(zeroShare float64, minSec float64) botnet.IntervalModel {
	modes := []botnet.IntervalMode{
		{Weight: zeroShare, MedianSec: 0},
		// The three modes of Figure 4: 6-7 minutes, 20-40 minutes, 2-3 hours.
		{Weight: (1 - zeroShare) * 0.52, MedianSec: 390, Sigma: 0.25},
		{Weight: (1 - zeroShare) * 0.30, MedianSec: 1800, Sigma: 0.45},
		{Weight: (1 - zeroShare) * 0.15, MedianSec: 9000, Sigma: 0.40},
		// Heavy tail: the longest observed family gap was 59 days.
		{Weight: (1 - zeroShare) * 0.03, MedianSec: 90000, Sigma: 1.1},
	}
	return botnet.IntervalModel{Modes: modes, MinSec: minSec, MaxSec: 59 * 24 * 3600}
}

// Profiles returns the ten active-family profiles calibrated to the paper,
// scaled by scale (<= 0 means 1.0).
func Profiles(scale float64) []*botnet.Profile {
	if scale <= 0 {
		scale = 1
	}
	s := scale
	// Durations shared across families: lognormal with the published
	// median and sigma 1.9, resampled below durMax, gives mean ≈ 8.3k s and
	// P80 ≈ 8.5k s, short of §III-C's published.DurationMeanSec and
	// DurationP80Sec (ROADMAP item 12).
	const (
		durMedian = published.DurationMedianSec
		durSigma  = 1.9
		durMax    = 260000.0
	)
	pandora, blackenergy := published.Dispersions[string(dataset.Pandora)], published.Dispersions[string(dataset.Blackenergy)]
	return []*botnet.Profile{
		{
			Family:          dataset.Dirtjumper,
			ActiveStartFrac: 0, ActiveEndFrac: 1,
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryHTTP, Count: scaled(published.DirtjumperHTTP, s, 40)},
			},
			Botnets: scaled(300, s, 6),
			TargetCountries: []botnet.CountryShare{
				{CC: "US", Weight: 9674}, {CC: "RU", Weight: 8391},
				{CC: "DE", Weight: 3750}, {CC: "UA", Weight: 3412},
				{CC: "NL", Weight: 1626},
			},
			TargetCountryCount: published.DirtjumperCountries,
			TargetPoolSize:     scaled(7600, s, 25),
			TargetZipf:         1.0,
			DurationMedianSec:  durMedian, DurationSigma: durSigma, DurationMaxSec: durMax,
			Intervals: paperIntervals(0.48, 0),
			SourceCountries: []botnet.CountryShare{
				{CC: "RU", Weight: 30}, {CC: "UA", Weight: 15}, {CC: "US", Weight: 10},
				{CC: "DE", Weight: 8}, {CC: "RO", Weight: 5}, {CC: "TR", Weight: 5},
				{CC: "IN", Weight: 5}, {CC: "BR", Weight: 5}, {CC: "PL", Weight: 4},
				{CC: "KZ", Weight: 3},
			},
			BotPoolSize:     scaled(190000, s, 4000),
			MagnitudeMedian: 35, MagnitudeSigma: 0.85, MagnitudeMax: 300,
			NewCountryPerWeek:  0.6,
			SymmetricProb:      0.55,
			DispersionTargetKm: 1203,
			IntraCollab:        scaled(published.IntraDirtjumper, s, 4),
			ConsecutiveChains:  scaled(50, s, 2),
			ChainLengthMean:    4,
		},
		{
			Family:          dataset.Pandora,
			ActiveStartFrac: 0.10, ActiveEndFrac: 0.95,
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryHTTP, Count: scaled(published.PandoraHTTP, s, 30)},
			},
			Botnets: scaled(120, s, 4),
			TargetCountries: []botnet.CountryShare{
				{CC: "RU", Weight: 1700}, {CC: "US", Weight: 1250},
				{CC: "DE", Weight: 800}, {CC: "UA", Weight: 500},
				{CC: "NL", Weight: 260},
			},
			TargetCountryCount: 43,
			TargetPoolSize:     scaled(1700, s, 15),
			TargetZipf:         1.0,
			DurationMedianSec:  2200, DurationSigma: durSigma, DurationMaxSec: durMax,
			Intervals: paperIntervals(0.35, 0),
			SourceCountries: []botnet.CountryShare{
				{CC: "RU", Weight: 40}, {CC: "UA", Weight: 20}, {CC: "BY", Weight: 10},
				{CC: "KZ", Weight: 6}, {CC: "DE", Weight: 4},
			},
			BotPoolSize:     scaled(45000, s, 2500),
			MagnitudeMedian: 30, MagnitudeSigma: 0.8, MagnitudeMax: 250,
			NewCountryPerWeek:  0.4,
			SymmetricProb:      pandora.Symmetric,
			DispersionTargetKm: pandora.MeanKm,
			IntraCollab:        scaled(published.IntraPandora, s, 1),
		},
		{
			Family:          dataset.Blackenergy,
			ActiveStartFrac: 0.05, ActiveEndFrac: 0.38, // active about a third of the window
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryHTTP, Count: scaled(published.BlackenergyHTTP, s, 20)},
				{Category: dataset.CategoryTCP, Count: scaled(published.BlackenergyTCP, s, 4)},
				{Category: dataset.CategoryICMP, Count: scaled(published.BlackenergyICMP, s, 3)},
				{Category: dataset.CategoryUDP, Count: scaled(published.BlackenergyUDP, s, 2)},
				{Category: dataset.CategorySYN, Count: scaled(published.BlackenergySYN, s, 1)},
			},
			Botnets: scaled(80, s, 3),
			TargetCountries: []botnet.CountryShare{
				{CC: "NL", Weight: 949}, {CC: "US", Weight: 820},
				{CC: "SG", Weight: 729}, {CC: "RU", Weight: 262},
				{CC: "DE", Weight: 219},
			},
			TargetCountryCount: 20,
			TargetPoolSize:     scaled(900, s, 12),
			TargetZipf:         1.0,
			DurationMedianSec:  durMedian, DurationSigma: durSigma, DurationMaxSec: durMax,
			Intervals: paperIntervals(0.40, 0),
			SourceCountries: []botnet.CountryShare{
				{CC: "RU", Weight: 15}, {CC: "US", Weight: 12}, {CC: "CN", Weight: 10},
				{CC: "IN", Weight: 10}, {CC: "BR", Weight: 8}, {CC: "DE", Weight: 6},
				{CC: "TR", Weight: 6}, {CC: "ID", Weight: 6}, {CC: "VN", Weight: 5},
				{CC: "EG", Weight: 4},
			},
			BotPoolSize:     scaled(30000, s, 2500),
			MagnitudeMedian: 40, MagnitudeSigma: 0.8, MagnitudeMax: 300,
			NewCountryPerWeek:  0.5,
			SymmetricProb:      blackenergy.Symmetric,
			DispersionTargetKm: blackenergy.MeanKm,
		},
		{
			Family:          dataset.Darkshell,
			ActiveStartFrac: 0, ActiveEndFrac: 0.8,
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryUndetermined, Count: scaled(published.DarkshellUndetermined, s, 10)},
				{Category: dataset.CategoryHTTP, Count: scaled(published.DarkshellHTTP, s, 10)},
			},
			Botnets: scaled(60, s, 3),
			TargetCountries: []botnet.CountryShare{
				{CC: "CN", Weight: 1880}, {CC: "KR", Weight: 1004},
				{CC: "US", Weight: 694}, {CC: "HK", Weight: 385},
				{CC: "JP", Weight: 86},
			},
			TargetCountryCount: 13,
			TargetPoolSize:     scaled(600, s, 10),
			TargetZipf:         1.0,
			DurationMedianSec:  durMedian, DurationSigma: durSigma, DurationMaxSec: durMax,
			Intervals: paperIntervals(0.45, 0),
			SourceCountries: []botnet.CountryShare{
				{CC: "CN", Weight: 40}, {CC: "TW", Weight: 10}, {CC: "KR", Weight: 8},
				{CC: "HK", Weight: 6}, {CC: "US", Weight: 5},
			},
			BotPoolSize:     scaled(17000, s, 1500),
			MagnitudeMedian: 28, MagnitudeSigma: 0.8, MagnitudeMax: 200,
			NewCountryPerWeek:  0.3,
			SymmetricProb:      0.5,
			DispersionTargetKm: 900,
			IntraCollab:        scaled(published.IntraDarkshell, s, 2),
			ConsecutiveChains:  scaled(30, s, 1),
			ChainLengthMean:    5,
		},
		{
			Family:          dataset.Colddeath,
			ActiveStartFrac: 0.2, ActiveEndFrac: 0.9,
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryHTTP, Count: scaled(published.ColddeathHTTP, s, 12)},
			},
			Botnets: scaled(25, s, 2),
			TargetCountries: []botnet.CountryShare{
				{CC: "IN", Weight: 801}, {CC: "PK", Weight: 345},
				{CC: "BW", Weight: 125}, {CC: "TH", Weight: 117},
				{CC: "ID", Weight: 112},
			},
			TargetCountryCount: 16,
			TargetPoolSize:     scaled(250, s, 8),
			TargetZipf:         1.0,
			DurationMedianSec:  durMedian, DurationSigma: durSigma, DurationMaxSec: durMax,
			Intervals: paperIntervals(0.30, 0),
			SourceCountries: []botnet.CountryShare{
				{CC: "IN", Weight: 30}, {CC: "PK", Weight: 15}, {CC: "ID", Weight: 10},
				{CC: "TH", Weight: 8}, {CC: "BD", Weight: 6},
			},
			BotPoolSize:     scaled(6000, s, 900),
			MagnitudeMedian: 22, MagnitudeSigma: 0.75, MagnitudeMax: 150,
			NewCountryPerWeek:  0.3,
			SymmetricProb:      0.5,
			DispersionTargetKm: 356,
		},
		{
			Family:          dataset.Nitol,
			ActiveStartFrac: 0.3, ActiveEndFrac: 1,
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryHTTP, Count: scaled(published.NitolHTTP, s, 8)},
				{Category: dataset.CategoryTCP, Count: scaled(published.NitolTCP, s, 6)},
			},
			Botnets: scaled(25, s, 2),
			TargetCountries: []botnet.CountryShare{
				{CC: "CN", Weight: 778}, {CC: "US", Weight: 176},
				{CC: "CA", Weight: 15}, {CC: "GB", Weight: 10},
				{CC: "NL", Weight: 6},
			},
			TargetCountryCount: 12,
			TargetPoolSize:     scaled(200, s, 8),
			TargetZipf:         1.0,
			DurationMedianSec:  durMedian, DurationSigma: durSigma, DurationMaxSec: durMax,
			Intervals: paperIntervals(0.25, 0),
			SourceCountries: []botnet.CountryShare{
				{CC: "CN", Weight: 35}, {CC: "US", Weight: 8}, {CC: "RU", Weight: 5},
			},
			BotPoolSize:     scaled(6000, s, 900),
			MagnitudeMedian: 20, MagnitudeSigma: 0.75, MagnitudeMax: 150,
			NewCountryPerWeek:  0.2,
			SymmetricProb:      0.5,
			DispersionTargetKm: 1100,
			IntraCollab:        scaled(published.IntraNitol, s, 1),
			ConsecutiveChains:  scaled(4, s, 1),
			ChainLengthMean:    4,
		},
		{
			Family:          dataset.Optima,
			ActiveStartFrac: 0, ActiveEndFrac: 0.7,
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryHTTP, Count: scaled(published.OptimaHTTP, s, 8)},
				{Category: dataset.CategoryUnknown, Count: scaled(published.OptimaUnknown, s, 3)},
			},
			Botnets: scaled(20, s, 2),
			TargetCountries: []botnet.CountryShare{
				{CC: "RU", Weight: 171}, {CC: "DE", Weight: 155},
				{CC: "US", Weight: 123}, {CC: "UA", Weight: 9},
				{CC: "KG", Weight: 7},
			},
			TargetCountryCount: 12,
			TargetPoolSize:     scaled(150, s, 8),
			TargetZipf:         1.0,
			DurationMedianSec:  durMedian, DurationSigma: durSigma, DurationMaxSec: durMax,
			// Optima launches nothing within 60 s of its previous attack
			// (Fig 5) — no simultaneous mode, 60 s floor.
			Intervals: paperIntervals(0, 60),
			SourceCountries: []botnet.CountryShare{
				{CC: "RU", Weight: 20}, {CC: "UA", Weight: 12}, {CC: "DE", Weight: 8},
				{CC: "US", Weight: 8}, {CC: "KZ", Weight: 5},
			},
			BotPoolSize:     scaled(5000, s, 900),
			MagnitudeMedian: 25, MagnitudeSigma: 0.8, MagnitudeMax: 150,
			NewCountryPerWeek:  0.2,
			SymmetricProb:      0.30,
			DispersionTargetKm: 3526,
			IntraCollab:        published.IntraOptima,
		},
		{
			Family:          dataset.YZF,
			ActiveStartFrac: 0.4, ActiveEndFrac: 0.9,
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryUDP, Count: scaled(published.YZFUDP, s, 4)},
				{Category: dataset.CategoryTCP, Count: scaled(published.YZFTCP, s, 4)},
				{Category: dataset.CategoryHTTP, Count: scaled(published.YZFHTTP, s, 4)},
			},
			Botnets: scaled(20, s, 2),
			TargetCountries: []botnet.CountryShare{
				{CC: "RU", Weight: 120}, {CC: "UA", Weight: 105},
				{CC: "US", Weight: 65}, {CC: "DE", Weight: 39},
				{CC: "NL", Weight: 19},
			},
			TargetCountryCount: 11,
			TargetPoolSize:     scaled(120, s, 6),
			TargetZipf:         1.0,
			DurationMedianSec:  durMedian, DurationSigma: durSigma, DurationMaxSec: durMax,
			Intervals: paperIntervals(0.30, 0),
			SourceCountries: []botnet.CountryShare{
				{CC: "RU", Weight: 25}, {CC: "UA", Weight: 15}, {CC: "DE", Weight: 5},
			},
			BotPoolSize:     scaled(4000, s, 800),
			MagnitudeMedian: 20, MagnitudeSigma: 0.75, MagnitudeMax: 120,
			NewCountryPerWeek:  0.2,
			SymmetricProb:      0.5,
			DispersionTargetKm: 800,
			IntraCollab:        scaled(published.IntraYZF, s, 1),
		},
		{
			Family:          dataset.Ddoser,
			ActiveStartFrac: 0, ActiveEndFrac: 0.15,
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryUDP, Count: scaled(published.DdoserUDP, s, 20)},
			},
			Botnets: scaled(14, s, 2),
			TargetCountries: []botnet.CountryShare{
				{CC: "MX", Weight: 452}, {CC: "VE", Weight: 191},
				{CC: "UY", Weight: 83}, {CC: "CL", Weight: 66},
				{CC: "US", Weight: 48},
			},
			TargetCountryCount: 19,
			TargetPoolSize:     scaled(100, s, 6),
			TargetZipf:         1.0,
			DurationMedianSec:  900, DurationSigma: 1.4, DurationMaxSec: durMax,
			Intervals: paperIntervals(0.30, 0),
			SourceCountries: []botnet.CountryShare{
				{CC: "MX", Weight: 20}, {CC: "VE", Weight: 10}, {CC: "CO", Weight: 8},
				{CC: "AR", Weight: 6}, {CC: "US", Weight: 5},
			},
			BotPoolSize:     scaled(6000, s, 900),
			MagnitudeMedian: 18, MagnitudeSigma: 0.7, MagnitudeMax: 100,
			NewCountryPerWeek:  0.2,
			SymmetricProb:      0.5,
			DispersionTargetKm: 1000,
			IntraCollab:        scaled(20, s, 1), // capped: published.IntraDdoser exceeds the family's attack budget
			ConsecutiveChains:  scaled(5, s, 2),
			ChainLengthMean:    8,
			RecordChainLength:  published.LongestChain, // the record chain, 18 minutes long
		},
		{
			Family:          dataset.Aldibot,
			ActiveStartFrac: 0.5, ActiveEndFrac: 0.8,
			Protocols: []botnet.ProtocolShare{
				{Category: dataset.CategoryUDP, Count: scaled(published.AldibotUDP, s, 10)},
			},
			Botnets: scaled(10, s, 2),
			TargetCountries: []botnet.CountryShare{
				{CC: "US", Weight: 32}, {CC: "FR", Weight: 11},
				{CC: "ES", Weight: 8}, {CC: "VE", Weight: 8},
				{CC: "DE", Weight: 4},
			},
			TargetCountryCount: 14,
			TargetPoolSize:     scaled(20, s, 5),
			TargetZipf:         1.0,
			DurationMedianSec:  durMedian, DurationSigma: durSigma, DurationMaxSec: durMax,
			// Aldibot, like Optima, never strikes twice within 60 s (Fig 5).
			Intervals: paperIntervals(0, 60),
			SourceCountries: []botnet.CountryShare{
				{CC: "US", Weight: 10}, {CC: "DE", Weight: 8}, {CC: "FR", Weight: 6},
				{CC: "ES", Weight: 5}, {CC: "BR", Weight: 4},
			},
			BotPoolSize:     scaled(1500, s, 500),
			MagnitudeMedian: 15, MagnitudeSigma: 0.7, MagnitudeMax: 80,
			NewCountryPerWeek:  0.1,
			SymmetricProb:      0.5,
			DispersionTargetKm: 1500,
		},
	}
}

// InterCollabs returns the cross-family coordination calibrated to
// Table VI (strict collaborations) and §III-B (concurrent-only pairs).
func InterCollabs(scale float64) []botnet.InterCollab {
	if scale <= 0 {
		scale = 1
	}
	return []botnet.InterCollab{
		{Initiator: dataset.Dirtjumper, Partner: dataset.Pandora, Pairs: scaled(published.InterPandora, scale, 2), MatchDuration: true, StartFrac: 0.15, EndFrac: 0.70},
		{Initiator: dataset.Dirtjumper, Partner: dataset.Blackenergy, Pairs: scaled(1, scale, 1), MatchDuration: true, StartFrac: 0.08, EndFrac: 0.35},
		{Initiator: dataset.Dirtjumper, Partner: dataset.Colddeath, Pairs: scaled(1, scale, 1), MatchDuration: true, StartFrac: 0.25, EndFrac: 0.85},
		{Initiator: dataset.Dirtjumper, Partner: dataset.Optima, Pairs: scaled(1, scale, 1), MatchDuration: true, StartFrac: 0.05, EndFrac: 0.65},
		// Concurrent but not duration-matched: §III-B's 391 observed
		// Dirtjumper+Blackenergy simultaneous launches.
		{Initiator: dataset.Dirtjumper, Partner: dataset.Blackenergy, Pairs: scaled(390, scale, 2), MatchDuration: false, StartFrac: 0.08, EndFrac: 0.35},
	}
}

// Burst returns the Dirtjumper burst of 2012-08-30 (day offset 1): the
// paper's peak day (published.DailyMax attacks) against one Russian
// subnet.
func Burst(scale float64) *botnet.BurstSpec {
	if scale <= 0 {
		scale = 1
	}
	return &botnet.BurstSpec{
		DayOffset: 1,
		Count:     scaled(720, scale, 10),
		TargetCC:  "RU",
		Targets:   12,
	}
}

// Generate builds the full synthetic workload: geo database, simulator,
// burst, and inter-family coordination.
func Generate(cfg Config) (*botnet.Output, error) {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	db := geo.NewDB(geo.DBConfig{Seed: cfg.Seed})
	sim, err := botnet.New(botnet.Config{
		Seed:         cfg.Seed,
		Window:       botnet.PaperWindow(),
		InterCollabs: InterCollabs(cfg.Scale),
	}, db, Profiles(cfg.Scale))
	if err != nil {
		return nil, fmt.Errorf("synth: build simulator: %w", err)
	}
	sim.SetBurst(dataset.Dirtjumper, Burst(cfg.Scale))
	out, err := sim.Run()
	if err != nil {
		return nil, fmt.Errorf("synth: run simulation: %w", err)
	}
	return out, nil
}

// GenerateStore is Generate followed by store construction.
func GenerateStore(cfg Config) (*dataset.Store, error) {
	out, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	store, err := out.Store()
	if err != nil {
		return nil, fmt.Errorf("synth: index workload: %w", err)
	}
	return store, nil
}
