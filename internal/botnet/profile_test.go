package botnet

import (
	"testing"
	"time"

	"botscope/internal/dataset"
)

func TestProfileTotalAttacks(t *testing.T) {
	p := testProfile(dataset.YZF, 10)
	p.Protocols = []ProtocolShare{
		{Category: dataset.CategoryUDP, Count: 7},
		{Category: dataset.CategoryTCP, Count: 5},
	}
	if got := p.TotalAttacks(); got != 12 {
		t.Errorf("TotalAttacks = %d, want 12", got)
	}
}

func TestProfileValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{name: "empty family", mutate: func(p *Profile) { p.Family = "" }},
		{name: "no attacks", mutate: func(p *Profile) { p.Protocols = nil }},
		{name: "inverted window", mutate: func(p *Profile) { p.ActiveStartFrac = 0.9; p.ActiveEndFrac = 0.1 }},
		{name: "negative window", mutate: func(p *Profile) { p.ActiveStartFrac = -0.1 }},
		{name: "window past one", mutate: func(p *Profile) { p.ActiveEndFrac = 1.5 }},
		{name: "no botnets", mutate: func(p *Profile) { p.Botnets = 0 }},
		{name: "no target countries", mutate: func(p *Profile) { p.TargetCountries = nil }},
		{name: "no target pool", mutate: func(p *Profile) { p.TargetPoolSize = 0 }},
		{name: "no source countries", mutate: func(p *Profile) { p.SourceCountries = nil }},
		{name: "no bot pool", mutate: func(p *Profile) { p.BotPoolSize = 0 }},
		{name: "bad duration median", mutate: func(p *Profile) { p.DurationMedianSec = 0 }},
		{name: "bad duration sigma", mutate: func(p *Profile) { p.DurationSigma = 0 }},
		{name: "magnitude below one", mutate: func(p *Profile) { p.MagnitudeMedian = 0.5 }},
		{name: "no interval modes", mutate: func(p *Profile) { p.Intervals.Modes = nil }},
		{name: "negative symmetric prob", mutate: func(p *Profile) { p.SymmetricProb = -0.1 }},
		{name: "symmetric prob above one", mutate: func(p *Profile) { p.SymmetricProb = 1.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := testProfile(dataset.YZF, 10)
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("invalid profile accepted")
			}
		})
	}
	if err := testProfile(dataset.YZF, 10).Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
}

func TestWindowHelpers(t *testing.T) {
	start := time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC)
	w := Window{Start: start, End: start.AddDate(0, 0, 10)}
	if got := w.Duration(); got != 240*time.Hour {
		t.Errorf("Duration = %v, want 240h", got)
	}
}

func TestPaperWindow(t *testing.T) {
	w := PaperWindow()
	// The paper's window: 2012-08-29 through 2013-03-24, 207 days.
	if got := int(w.Duration().Hours() / 24); got != 207 {
		t.Errorf("paper window = %d days, want 207", got)
	}
	if w.Start.Year() != 2012 || w.End.Year() != 2013 {
		t.Errorf("window = %v .. %v", w.Start, w.End)
	}
}
