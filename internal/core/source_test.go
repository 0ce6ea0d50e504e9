package core

import (
	"net/netip"
	"testing"
	"time"

	"botscope/internal/dataset"
)

// botAt creates a Botlist record at the given location.
func botAt(ip string, lat, lon float64) *dataset.Bot {
	return &dataset.Bot{
		IP: netip.MustParseAddr(ip), CountryCode: "RU", City: "Moscow",
		Org: "o", ASN: 1, Lat: lat, Lon: lon,
	}
}

func TestDispersionSeriesSymmetricFormation(t *testing.T) {
	// Two bots mirrored around a center: dispersion ~0.
	bots := []*dataset.Bot{
		botAt("9.0.0.1", 50, 9),
		botAt("9.0.0.2", 50, 11),
	}
	a := mkAttack(1, dataset.Pandora, 1, "5.5.5.1", t0, time.Hour)
	a.BotIPs = []netip.Addr{bots[0].IP, bots[1].IP}
	s := mustStore(t, []*dataset.Attack{a}, bots...)
	series := DispersionSeries(s, dataset.Pandora)
	if len(series) != 1 {
		t.Fatalf("series = %d points, want 1", len(series))
	}
	if series[0].Value > 5 {
		t.Errorf("symmetric dispersion = %v km, want ~0", series[0].Value)
	}
}

func TestDispersionSeriesSkipsUnresolvableBots(t *testing.T) {
	a := mkAttack(1, dataset.Pandora, 1, "5.5.5.1", t0, time.Hour)
	// Default mkAttack bot IP 9.9.9.9 has no Botlist record.
	s := mustStore(t, []*dataset.Attack{a})
	if series := DispersionSeries(s, dataset.Pandora); len(series) != 0 {
		t.Errorf("series = %v, want empty when no bots resolve", series)
	}
}

func TestProfileDispersion(t *testing.T) {
	bots := []*dataset.Bot{
		botAt("9.0.0.1", 50, 9),
		botAt("9.0.0.2", 50, 11),
		botAt("9.0.0.3", 0, 0),
		botAt("9.0.0.4", 10, 0),
		botAt("9.0.0.5", 80, 0),
	}
	// Attack 1 symmetric; attack 2 asymmetric (meridian triple).
	a1 := mkAttack(1, dataset.Pandora, 1, "5.5.5.1", t0, time.Hour)
	a1.BotIPs = []netip.Addr{bots[0].IP, bots[1].IP}
	a2 := mkAttack(2, dataset.Pandora, 1, "5.5.5.2", t0.Add(time.Hour), time.Hour)
	a2.BotIPs = []netip.Addr{bots[2].IP, bots[3].IP, bots[4].IP}
	s := mustStore(t, []*dataset.Attack{a1, a2}, bots...)

	prof, err := NewDispersionIndex(s).Profile(dataset.Pandora)
	if err != nil {
		t.Fatal(err)
	}
	if prof.N != 2 {
		t.Fatalf("N = %d, want 2", prof.N)
	}
	if prof.SymmetricFrac != 0.5 {
		t.Errorf("SymmetricFrac = %v, want 0.5", prof.SymmetricFrac)
	}
	if prof.Asymmetric.N != 1 || prof.Asymmetric.Mean < 150 {
		t.Errorf("asymmetric summary = %+v, want one large value", prof.Asymmetric)
	}

	if _, err := NewDispersionIndex(s).Profile(dataset.Optima); err == nil {
		t.Error("family without data succeeded")
	}
}

func TestDispersionHistogram(t *testing.T) {
	bots := []*dataset.Bot{
		botAt("9.0.0.3", 0, 0),
		botAt("9.0.0.4", 10, 0),
		botAt("9.0.0.5", 80, 0),
	}
	a := mkAttack(1, dataset.Blackenergy, 1, "5.5.5.1", t0, time.Hour)
	a.BotIPs = []netip.Addr{bots[0].IP, bots[1].IP, bots[2].IP}
	s := mustStore(t, []*dataset.Attack{a}, bots...)
	h, err := NewDispersionIndex(s).Histogram(dataset.Blackenergy, 10)
	if err != nil {
		t.Fatal(err)
	}
	total := h.Underflow() + h.Overflow()
	for i := range h.Bins() {
		total += h.Count(i)
	}
	if total != 1 {
		t.Errorf("histogram total = %d, want 1", total)
	}
	if _, err := NewDispersionIndex(s).Histogram(dataset.Optima, 10); err == nil {
		t.Error("family without asymmetric data succeeded")
	}
}

func TestSourceOnSynthWorkload(t *testing.T) {
	ix := NewDispersionIndex(synthWorkload(t))

	// Fig 9's family selection: several families have enough snapshots.
	active := ix.ActiveFamilies(10)
	if len(active) < 6 {
		t.Errorf("families with >= 10 dispersion points = %d, want >= 6", len(active))
	}

	// Pandora and Blackenergy symmetric shares (paper: 76.7% and 89.5%).
	pand, err := ix.Profile(dataset.Pandora)
	if err != nil {
		t.Fatal(err)
	}
	// Regime persistence makes the realized share noisy at small scale
	// (few campaign switches in a few hundred attacks); full-scale checks
	// live in the experiments package.
	if pand.SymmetricFrac < 0.55 || pand.SymmetricFrac > 0.95 {
		t.Errorf("pandora symmetric fraction = %v, want about 0.767", pand.SymmetricFrac)
	}
	be, err := ix.Profile(dataset.Blackenergy)
	if err != nil {
		t.Fatal(err)
	}
	if be.SymmetricFrac < 0.6 || be.SymmetricFrac > 0.99 {
		t.Errorf("blackenergy symmetric fraction = %v, want about 0.895", be.SymmetricFrac)
	}
	// Ordering: Blackenergy's asymmetric dispersions are far larger than
	// Pandora's (4,304 vs 566 km in the paper).
	if be.Asymmetric.Mean <= pand.Asymmetric.Mean {
		t.Errorf("blackenergy asymmetric mean %v not above pandora %v",
			be.Asymmetric.Mean, pand.Asymmetric.Mean)
	}

	// Dirtjumper: >40% of values at "zero" (Fig 9).
	dj, err := ix.Profile(dataset.Dirtjumper)
	if err != nil {
		t.Fatal(err)
	}
	if dj.SymmetricFrac < 0.4 {
		t.Errorf("dirtjumper symmetric fraction = %v, want > 0.4", dj.SymmetricFrac)
	}

	// CDF is well-formed.
	cdf, err := ix.CDF(dataset.Pandora)
	if err != nil {
		t.Fatal(err)
	}
	if cdf.N() != pand.N {
		t.Errorf("CDF N = %d, profile N = %d", cdf.N(), pand.N)
	}
}
