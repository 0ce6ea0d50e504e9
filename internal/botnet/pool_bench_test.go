package botnet_test

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"botscope/internal/botnet"
	"botscope/internal/dataset"
	"botscope/internal/geo"
	"botscope/internal/synth"
)

// BenchmarkFormation times one median-size formation from a scale-1
// Dirtjumper pool that has recruited 20 new countries, as a year of weekly
// expansions leaves it. Symmetric formations sort one city's candidates by
// their signed distance from its center; asymmetric ones search every
// cluster for the offset whose predicted dispersion is nearest the target.
func BenchmarkFormation(b *testing.B) {
	var p *botnet.Profile
	for _, q := range synth.Profiles(1) {
		if q.Family == dataset.Dirtjumper {
			p = q
		}
	}
	pool, err := botnet.NewPool(rand.New(rand.NewSource(1)), geo.NewDB(geo.DBConfig{Seed: 1}), p, p.BotPoolSize, make(map[netip.Addr]bool))
	if err != nil {
		b.Fatal(err)
	}
	for range 20 {
		pool.RecruitNewCountry(p.BotPoolSize / 200)
	}
	when := time.Date(2012, 9, 1, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name      string
		symmetric bool
	}{{"symmetric", true}, {"asymmetric", false}} {
		b.Run(tc.name, func(b *testing.B) {
			i := 0
			for b.Loop() {
				cc := p.SourceCountries[i%len(p.SourceCountries)].CC
				pool.Formation(cc, int(p.MagnitudeMedian), tc.symmetric, p.DispersionTargetKm, when)
				i++
			}
		})
	}
}
