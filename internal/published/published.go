// Package published holds the numbers the paper publishes, each written
// once and citing the table, figure or section that states it. The
// generator (internal/synth) reads the ones it is calibrated to and the
// experiments read the ones they compare against, so a target and its
// check cannot drift apart; the gate's paperlit rule fails a literal
// elsewhere that copies one of these values.
//
// Constants are untyped, so one name serves the generator's int counts
// and the experiments' float64 references alike. Counts are at paper
// scale (Attacks attacks); a caller at another scale multiplies by its
// scale. A table is keyed the way the paper labels its rows: by family
// name or by country code.
package published

// Table II (§II-B): attacks per (family, protocol). The nineteen cells
// sum to Attacks.
const (
	DirtjumperHTTP        = 34620
	PandoraHTTP           = 6906
	BlackenergyHTTP       = 3048
	BlackenergyTCP        = 199
	BlackenergyICMP       = 147
	BlackenergyUDP        = 71
	BlackenergySYN        = 31
	DarkshellUndetermined = 1530
	DarkshellHTTP         = 999
	ColddeathHTTP         = 826
	NitolHTTP             = 591
	NitolTCP              = 345
	OptimaHTTP            = 567
	OptimaUnknown         = 126
	YZFUDP                = 187
	YZFTCP                = 182
	YZFHTTP               = 177
	DdoserUDP             = 126
	AldibotUDP            = 26
)

// Figure 1 (§II-B): HTTP's share of all attacks (Table II's 47,734 of
// 50,704) and the connection-oriented share (48,491 of 50,704).
const (
	HTTPShare               = 0.941
	ConnectionOrientedShare = 0.956
)

// Table III: the workload's totals.
const (
	Attacks         = 50704
	Botnets         = 674
	BotIPs          = 310950
	TargetIPs       = 9026
	TargetCountries = 84
	TargetOrgs      = 1074
	TrafficTypes    = 7
)

// Figure 2 (§II-B): attacks launched per day, on average and on the peak
// day (2012-08-30, nearly all Dirtjumper's).
const (
	DailyMean = 243
	DailyMax  = 983
)

// §III-B, Figures 3 and 5: inter-attack intervals. A simultaneous attack
// starts within 60 s of its predecessor; the P80 and mean are of the
// per-family gap series.
const (
	SimultaneousShare       = 0.55
	FamilySimultaneousShare = 0.50
	FamilyIntervalP80Sec    = 1081
	FamilyIntervalMeanSec   = 3060
	DirtjumperBelow60s      = 0.55
	BlackenergyBelow60s     = 0.40
	// Aldibot and Optima launch nothing within 60 s of their last attack.
	OptimaAldibotBelow60s = 0
)

// §III-C, Figures 6 and 7: attack durations, and Mao et al.'s single-ISP
// baseline [24], 80% of whose attacks end within 1.25 h.
const (
	DurationMeanSec   = 10308
	DurationMedianSec = 1766
	DurationStdSec    = 18475
	DurationP80Sec    = 13882 // about four hours
	DurationUnder4h   = 0.8
	DurationUnder60s  = 0.10
	BaselineUnder75m  = 0.8
)

// Figure 8 (§III-D): weekly bot shifts into countries a family already
// used outnumber shifts into new ones by about an order of magnitude.
const SourceShiftRatio = 10

// §IV-A, Figure 9: more than 40% of Dirtjumper's and Pandora's
// dispersion values are zero (symmetric).
const SymmetricFloor = 0.4

// §IV-A: forecasts are scored on the last TestPoints points of each
// family's dispersion series.
const TestPoints = 2700

// Dispersion is one family's §IV-A dispersion histogram (Figures 10, 11):
// the mean of its asymmetric values and its symmetric share.
type Dispersion struct {
	MeanKm, Symmetric float64
}

// Dispersions holds the two families the paper plots.
var Dispersions = map[string]Dispersion{
	"pandora":     {MeanKm: 566, Symmetric: 0.767},
	"blackenergy": {MeanKm: 4304, Symmetric: 0.895},
}

// Similarity is Table IV (and Figures 12, 13): the cosine similarity of
// each family's ARIMA one-step forecasts to the truth.
var Similarity = map[string]float64{
	"blackenergy": 0.960,
	"pandora":     0.946,
	"dirtjumper":  0.848,
	"optima":      0.941,
	"colddeath":   0.809,
}

// Table V: attacks on the five most attacked countries, all families
// together.
var CountryAttacks = map[string]float64{
	"US": 13738, "RU": 11451, "DE": 5048, "UA": 4078, "NL": 2816,
}

// DirtjumperCountries is Table V's count of countries Dirtjumper
// attacked.
const DirtjumperCountries = 71

// Table VI (§V-A): collaborations per family, within the family and
// across families. Figure 15 plots Dirtjumper's intra-family ones;
// Pandora's inter-family ones are all with Dirtjumper (Figure 16).
// MeanBotnets is the botnets taking part in one collaboration, on average.
const (
	IntraDarkshell  = 253
	IntraDdoser     = 134
	IntraDirtjumper = 756
	IntraNitol      = 17
	IntraOptima     = 1
	IntraPandora    = 10
	IntraYZF        = 66
	InterDirtjumper = 121
	InterPandora    = 118
	MeanBotnets     = 2.19
)

// Figure 16 (§V-A): the Dirtjumper–Pandora collaborations' distinct
// targets, each family's mean attack duration in them, and their span.
const (
	PairTargets                   = 96
	PairPandoraMeanDurationSec    = 6420
	PairDirtjumperMeanDurationSec = 5083
	PairSpanWeeks                 = 16
)

// Figures 17 and 18 (§V-B): consecutive (multistage) attacks. Most
// follow their predecessor within seconds; the longest chain is 22
// attacks in 18 minutes.
const (
	ChainGapWithin10s = 0.65
	ChainGapWithin30s = 0.80
	LongestChain      = 22
)
