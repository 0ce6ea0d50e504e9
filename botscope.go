// Package botscope is a library for characterizing and analyzing
// botnet-launched Internet DDoS attacks, reproducing the measurement study
// "Delving into Internet DDoS Attacks by Botnets: Characterization and
// Analysis" (DSN 2015).
//
// The library has three layers:
//
//   - A workload layer: the Table I attack/bot/botnet schemas, an indexed
//     in-memory store, CSV/JSON codecs, and a calibrated synthetic
//     generator standing in for the paper's proprietary 7-month
//     monitoring feed (50,704 attacks, 674 botnets, 10 active families).
//
//   - An analysis layer (Analyzer): attack overview (protocol mix, daily
//     density, inter-attack intervals, durations), source geolocation
//     analysis (the signed-dispersion metric, weekly shift patterns,
//     ARIMA forecasting), target affinity (country/organization), and
//     collaboration detection (concurrent and multistage).
//
//   - An experiment layer: one regeneration function per table and figure
//     of the paper's evaluation, with measured-vs-paper metrics.
//
//   - A streaming layer (StreamAnalyzer): a bounded-memory online mirror
//     of the core analyses that ingests attacks one at a time, for live
//     feeds where the workload never fits in memory.
//
// Quickstart:
//
//	store, err := botscope.Generate(botscope.GenerateConfig{Seed: 1, Scale: 0.05})
//	if err != nil { ... }
//	a := botscope.NewAnalyzer(store)
//	stats, err := a.DailyDistribution()
package botscope

import (
	"io"
	"time"

	"botscope/internal/botnet"
	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/experiments"
	"botscope/internal/monitor"
	"botscope/internal/stream"
	"botscope/internal/synth"
	"botscope/internal/timeseries"
)

// Core workload types, re-exported from the dataset schemas (Table I).
type (
	// Attack is one DDoSAttack record.
	Attack = dataset.Attack
	// Bot is one Botlist record.
	Bot = dataset.Bot
	// Botnet is one Botnetlist record.
	Botnet = dataset.Botnet
	// Store is an indexed, immutable workload.
	Store = dataset.Store
	// Family is a malware family name.
	Family = dataset.Family
	// Category is an attack's protocol category.
	Category = dataset.Category
	// SummaryCounts mirrors the paper's Table III.
	SummaryCounts = dataset.SummaryCounts
)

// The ten active families of the paper's analysis window.
const (
	Aldibot     = dataset.Aldibot
	Blackenergy = dataset.Blackenergy
	Colddeath   = dataset.Colddeath
	Darkshell   = dataset.Darkshell
	Ddoser      = dataset.Ddoser
	Dirtjumper  = dataset.Dirtjumper
	Nitol       = dataset.Nitol
	Optima      = dataset.Optima
	Pandora     = dataset.Pandora
	YZF         = dataset.YZF
)

// Attack categories.
const (
	CategoryHTTP         = dataset.CategoryHTTP
	CategoryTCP          = dataset.CategoryTCP
	CategoryUDP          = dataset.CategoryUDP
	CategoryUndetermined = dataset.CategoryUndetermined
	CategoryICMP         = dataset.CategoryICMP
	CategoryUnknown      = dataset.CategoryUnknown
	CategorySYN          = dataset.CategorySYN
)

// ActiveFamilies lists the paper's ten active families.
func ActiveFamilies() []Family { return append([]Family(nil), dataset.ActiveFamilies...) }

// NewStore indexes a workload from raw records.
func NewStore(attacks []*Attack, botnets []*Botnet, bots []*Bot) (*Store, error) {
	return dataset.NewStore(attacks, botnets, bots)
}

// GenerateConfig parameterizes synthetic workload generation. Scale 1.0
// reproduces the paper-size workload; smaller values generate
// proportionally smaller ones. The same seed reproduces the same workload.
type GenerateConfig = synth.Config

// Generate builds a synthetic workload calibrated to the paper.
func Generate(cfg GenerateConfig) (*Store, error) {
	return synth.GenerateStore(cfg)
}

// Scenario-construction types for custom (what-if) workloads.
type (
	// ScenarioBuilder composes custom workloads family by family.
	ScenarioBuilder = synth.ScenarioBuilder
	// FamilyProfile is the full behavioural parameterization of a family.
	FamilyProfile = botnet.Profile
	// InterCollab stages cross-family coordination in a scenario.
	InterCollab = botnet.InterCollab
	// BurstSpec injects a one-day attack storm into a scenario.
	BurstSpec = botnet.BurstSpec
)

// NewScenario starts a custom-workload builder on the paper's window.
func NewScenario(seed int64) *ScenarioBuilder { return synth.NewScenario(seed) }

// MiraiLikeProfile sketches a Mirai-style IoT botnet for what-if scenarios
// (the paper's §II-C discussion of generality to newer families).
func MiraiLikeProfile(attacks int) *FamilyProfile { return synth.MiraiLikeProfile(attacks) }

// GenerateRaw returns the raw record lists instead of an indexed store.
func GenerateRaw(cfg GenerateConfig) ([]*Attack, []*Botnet, []*Bot, error) {
	out, err := synth.Generate(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return out.Attacks, out.Botnets, out.Bots, nil
}

// WriteCSV / ReadCSV / WriteJSONL / ReadJSONL re-export the attack codecs.
func WriteCSV(w io.Writer, attacks []*Attack) error   { return dataset.WriteCSV(w, attacks) }
func ReadCSV(r io.Reader) ([]*Attack, error)          { return dataset.ReadCSV(r) }
func WriteJSONL(w io.Writer, attacks []*Attack) error { return dataset.WriteJSONL(w, attacks) }
func ReadJSONL(r io.Reader) ([]*Attack, error)        { return dataset.ReadJSONL(r) }

// WriteSnapshot writes the store's versioned binary columnar snapshot
// ("BSCS"): the interned string table, the attack/bot/botnet columns, and
// the dense source-IP layer, so a workload reloads in seconds instead of
// being regenerated and re-indexed.
func WriteSnapshot(w io.Writer, s *Store) error { return dataset.WriteSnapshot(w, s) }

// ReadSnapshot reads one BSCS snapshot and materializes the store,
// re-validating every record, so a corrupt snapshot yields an error
// rather than a malformed workload.
func ReadSnapshot(r io.Reader) (*Store, error) { return dataset.ReadSnapshot(r) }

// ErrStoreClosed is returned by snapshot writes on a store whose mapped
// region was released with Store.Close.
var ErrStoreClosed = dataset.ErrStoreClosed

// ErrStop, returned from a Decode* callback, stops decoding early without
// error.
var ErrStop = dataset.ErrStop

// DecodeCSV / DecodeJSONL stream attacks record by record without
// materializing the full slice — the ingestion path for feeds of arbitrary
// length.
func DecodeCSV(r io.Reader, fn func(*Attack) error) error   { return dataset.DecodeCSV(r, fn) }
func DecodeJSONL(r io.Reader, fn func(*Attack) error) error { return dataset.DecodeJSONL(r, fn) }

// Streaming analytics types, re-exported from the stream layer.
type (
	// StreamAnalyzer ingests attacks one at a time and maintains online
	// state mirroring the batch analyses in bounded memory. It is safe for
	// one concurrent writer plus any number of snapshot readers.
	StreamAnalyzer = stream.Analyzer
	// StreamSnapshot is a point-in-time view of a StreamAnalyzer.
	StreamSnapshot = stream.Snapshot
	// StreamCollabCandidate is one live collaborative-attack candidate.
	StreamCollabCandidate = stream.CollabCandidate
	// StreamCollabSummary aggregates live collaboration detection.
	StreamCollabSummary = stream.CollabSummary
)

// ErrOutOfOrder is returned by StreamAnalyzer.Ingest for records that
// regress in event time.
var ErrOutOfOrder = stream.ErrOutOfOrder

// NewStreamAnalyzer builds an empty streaming analyzer.
func NewStreamAnalyzer() *StreamAnalyzer { return stream.New() }

// Analysis result types.
type (
	// ProtocolCount is one row of the Fig 1 breakdown.
	ProtocolCount = core.ProtocolCount
	// DailyStats is the Fig 2 daily distribution with headline numbers.
	DailyStats = core.DailyStats
	// IntervalStats summarizes an inter-attack gap series (§III-B).
	IntervalStats = core.IntervalStats
	// DurationStats summarizes a duration series (§III-C).
	DurationStats = core.DurationStats
	// DispersionProfile is the §IV-A per-family source characterization.
	DispersionProfile = core.DispersionProfile
	// PredictionResult is the Figs 12-13 / Table IV forecasting outcome.
	PredictionResult = core.PredictionResult
	// PredictConfig tunes the forecasting experiment.
	PredictConfig = core.PredictConfig
	// TargetCountryProfile is one family's Table V row group.
	TargetCountryProfile = core.TargetCountryProfile
	// OrgHotspot is one Fig 14 organization-level mark.
	OrgHotspot = core.OrgHotspot
	// Collaboration is one detected §V collaborative attack.
	Collaboration = core.Collaboration
	// CollabStats is Table VI.
	CollabStats = core.CollabStats
	// Chain is one §V-B multistage attack.
	Chain = core.Chain
	// ChainStats summarizes multistage attacks (Figs 17-18).
	ChainStats = core.ChainStats
	// NextAttackPrediction is a per-target start-time forecast.
	NextAttackPrediction = core.NextAttackPrediction
	// Blacklist is a ranked bot blacklist (the paper's §V defense insight).
	Blacklist = core.Blacklist
	// BlacklistEvaluation scores a blacklist on future attacks.
	BlacklistEvaluation = core.BlacklistEvaluation
	// MitigationWindow is a per-target high-alert window (§III-D).
	MitigationWindow = core.MitigationWindow
	// MagnitudeProfile summarizes a family's attack-strength law.
	MagnitudeProfile = core.MagnitudeProfile
	// LoadStats summarizes the concurrent-attack load sweep.
	LoadStats = core.LoadStats
	// TransferResult scores cross-family model transfer.
	TransferResult = core.TransferResult
	// DiurnalAnalysis scores day-shaped timing patterns (§III-A).
	DiurnalAnalysis = core.DiurnalAnalysis
	// ARIMAOrder is an ARIMA(p,d,q) model order.
	ARIMAOrder = timeseries.Order
	// ARIMAModel is a fitted ARIMA model.
	ARIMAModel = timeseries.Model
	// WeekStats is one week of the Fig 8 source aggregation.
	WeekStats = monitor.WeekStats
	// HourlyReport is one snapshot of the paper's collection pipeline.
	HourlyReport = monitor.HourlyReport
	// BotnetActivity profiles one botnet generation's observed behaviour.
	BotnetActivity = monitor.BotnetActivity
	// GenerationChurn measures generation concentration within a family.
	GenerationChurn = monitor.GenerationChurn
)

// Analyzer exposes every analysis of the paper over one workload.
// The zero value is not usable; construct it with NewAnalyzer.
// An Analyzer is safe for concurrent use. The monitoring collector, the
// per-family dispersion series and the §V event lists (collaborations,
// chains) are derived once per Analyzer and shared by every method that
// reads them.
type Analyzer struct {
	w *experiments.Workload // the store and its derived products
}

// NewAnalyzer wraps a workload store.
func NewAnalyzer(store *Store) *Analyzer {
	return &Analyzer{w: experiments.FromStore(store, 1)}
}

// Store returns the underlying workload.
func (a *Analyzer) Store() *Store { return a.w.Store }

// Summary computes the Table III entity counts.
func (a *Analyzer) Summary() SummaryCounts { return a.w.Store.Summary() }

// ProtocolBreakdown counts attacks per category (Fig 1).
func (a *Analyzer) ProtocolBreakdown() []ProtocolCount { return core.ProtocolBreakdown(a.w.Store) }

// DailyDistribution buckets attacks per day (Fig 2).
func (a *Analyzer) DailyDistribution() (DailyStats, error) { return core.DailyDistribution(a.w.Store) }

// AllIntervals returns the global inter-attack gap series in seconds.
func (a *Analyzer) AllIntervals() []float64 { return core.AllIntervals(a.w.Store) }

// FamilyIntervals returns one family's gap series in seconds.
func (a *Analyzer) FamilyIntervals(f Family) []float64 { return core.FamilyIntervals(a.w.Store, f) }

// AnalyzeIntervals summarizes a gap series (§III-B).
func (a *Analyzer) AnalyzeIntervals(gaps []float64) (IntervalStats, error) {
	return core.AnalyzeIntervals(gaps)
}

// Durations returns all attack durations in seconds, time-ordered.
func (a *Analyzer) Durations() []float64 { return core.Durations(a.w.Store) }

// AnalyzeDurations summarizes a duration series (§III-C).
func (a *Analyzer) AnalyzeDurations(durs []float64) (DurationStats, error) {
	return core.AnalyzeDurations(durs)
}

// DispersionProfile characterizes one family's source geometry (§IV-A).
func (a *Analyzer) DispersionProfile(f Family) (DispersionProfile, error) {
	return a.w.Disp().Profile(f)
}

// DispersionSeries returns a family's per-attack dispersion values in km.
func (a *Analyzer) DispersionSeries(f Family) []float64 {
	return core.DispersionValues(a.w.Disp().Series(f))
}

// PredictDispersion runs the §IV-A ARIMA forecasting experiment.
func (a *Analyzer) PredictDispersion(f Family, cfg PredictConfig) (*PredictionResult, error) {
	return a.w.Disp().Predict(f, cfg)
}

// PredictAllFamilies runs the forecasting experiment for every family with
// enough data (Table IV).
func (a *Analyzer) PredictAllFamilies(cfg PredictConfig) []*PredictionResult {
	return a.w.Disp().PredictAll(cfg, 0)
}

// PredictNextAttacks forecasts the next-attack start gap per repeat target.
func (a *Analyzer) PredictNextAttacks(minAttacks int) []NextAttackPrediction {
	return core.PredictNextAttacks(a.w.Store, minAttacks)
}

// TargetCountries computes one family's Table V profile.
func (a *Analyzer) TargetCountries(f Family, topN int) TargetCountryProfile {
	return core.TargetCountries(a.w.Store, f, topN)
}

// GlobalTargetCountries ranks victim countries across families.
func (a *Analyzer) GlobalTargetCountries(topN int) []core.CountryCount {
	return core.GlobalTargetCountries(a.w.Store, topN)
}

// OrgHotspots computes the Fig 14 organization-level hotspots for one
// family inside [from, to); zero times mean the whole workload.
func (a *Analyzer) OrgHotspots(f Family, from, to time.Time) []OrgHotspot {
	return core.OrgHotspots(a.w.Store, f, from, to)
}

// Collaborations detects and summarizes §V collaborative attacks.
func (a *Analyzer) Collaborations() CollabStats {
	return core.AnalyzeCollaborationsFrom(a.w.Collabs())
}

// Pair analyzes the collaborations between two families (Fig 16).
func (a *Analyzer) Pair(x, y Family) core.PairSummary {
	return core.AnalyzePairFrom(a.w.Collabs(), x, y)
}

// Chains summarizes §V-B multistage attacks. The chains are detected on
// the first call and shared afterwards: callers must not modify them.
func (a *Analyzer) Chains() ChainStats { return a.w.Chains() }

// MagnitudeProfile characterizes one family's attack magnitudes.
func (a *Analyzer) MagnitudeProfile(f Family) (MagnitudeProfile, error) {
	return core.ProfileMagnitudes(a.w.Store, f)
}

// ConcurrentLoad sweeps the workload for the number of simultaneously
// active attacks over time (§II-B's "243 simultaneous attacks" figure).
func (a *Analyzer) ConcurrentLoad() ([]core.LoadPoint, LoadStats, error) {
	return core.ConcurrentLoad(a.w.Store)
}

// TransferPredict applies a dispersion model fitted on one family to
// another (the paper's cross-family learning claim).
func (a *Analyzer) TransferPredict(source, target Family, order ARIMAOrder, minSeries int) (*TransferResult, error) {
	return a.w.Disp().Transfer(source, target, order, minSeries)
}

// AnalyzeDiurnal scores hour-of-day / day-of-week timing concentration
// against a user-driven reference profile (§III-A: DDoS launches show no
// diurnal pattern).
func (a *Analyzer) AnalyzeDiurnal() (DiurnalAnalysis, error) {
	return core.AnalyzeDiurnal(a.w.Store)
}

// BuildBlacklist ranks bots observed in [from, to) by attack participation
// and keeps the top maxSize (0 = all). Zero times mean the whole workload.
func (a *Analyzer) BuildBlacklist(from, to time.Time, maxSize int) (*Blacklist, error) {
	return core.BuildBlacklist(a.w.Store, from, to, maxSize)
}

// EvaluateBlacklist replays the attacks in [from, to) against a blacklist.
func (a *Analyzer) EvaluateBlacklist(bl *Blacklist, from, to time.Time) (BlacklistEvaluation, error) {
	return core.EvaluateBlacklist(a.w.Store, bl, from, to)
}

// PlanMitigation derives per-target high-alert windows from historical
// inter-attack gaps for targets with at least minAttacks attacks.
func (a *Analyzer) PlanMitigation(minAttacks int) []MitigationWindow {
	return core.PlanMitigation(a.w.Store, minAttacks)
}

// WeeklySources computes the Fig 8 week-by-week source aggregation.
func (a *Analyzer) WeeklySources(f Family) ([]WeekStats, error) {
	return a.w.Collector().WeeklySources(f)
}

// HourlyReports replays the paper's hourly collection pipeline (§II-B).
func (a *Analyzer) HourlyReports(f Family) ([]HourlyReport, error) {
	return a.w.Collector().HourlyReports(f)
}

// BotnetActivities profiles every generation of a family (activity spans,
// targets, peak magnitudes), most active first.
func (a *Analyzer) BotnetActivities(f Family) ([]BotnetActivity, error) {
	return a.w.Collector().BotnetActivities(f)
}

// Churn measures how concentrated a family's attacks are across its
// botnet generations.
func (a *Analyzer) Churn(f Family) (GenerationChurn, error) {
	return a.w.Collector().Churn(f)
}

// FitARIMA fits an ARIMA model to an arbitrary series.
func FitARIMA(series []float64, order ARIMAOrder) (*ARIMAModel, error) {
	return timeseries.Fit(series, order)
}

// AutoFitARIMA selects an ARIMA order by BIC over a small grid.
func AutoFitARIMA(series []float64, d, maxP, maxQ int) (*ARIMAModel, error) {
	return timeseries.AutoFit(series, d, maxP, maxQ)
}

// Experiment types, re-exported from the experiments layer.
type (
	// ExperimentResult is the outcome of one table/figure regeneration.
	ExperimentResult = experiments.Result
	// ExperimentWorkload drives per-table/figure regeneration.
	ExperimentWorkload = experiments.Workload
)

// NewExperiments wraps a store for table/figure regeneration; scale is the
// generation scale the count expectations are adjusted by (1.0 = paper).
func NewExperiments(store *Store, scale float64) *ExperimentWorkload {
	return experiments.FromStore(store, scale)
}
