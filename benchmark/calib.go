package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on changes speed: the same binary on the
// same inputs runs up to 25 % faster or slower, for seconds or for minutes
// at a time, with little or no steal time to show for it. Code bound by
// arithmetic keeps its pace (a SHA-256 loop within 3 %); code that misses
// the caches or allocates does not (a pointer chase within 10 %, JSON
// decoding within 20 %), so the cause is the neighbours' memory traffic.
// Wall-clock medians of identical code then differ more between two runs
// than most changes this repository will see (README.md, A/A).
//
// So a run measures the host beside the workload. Between passes it times
// a fixed piece of standard-library work, the calibration, which no change
// to this repository can touch. A pass's host-speed factor is calibRefS
// over the median of the localSamples calibration samples taken nearest to
// it, half before and half after, and every reported timing is the median
// of the wall-clock figures each multiplied by its own factor: seconds as
// the reference host would have taken them. Over eight runs of each
// workload on a restless afternoon raw pass_s medians spread 10-15 %, the
// scaled ones 3-5 %; explore_warm's cold rounds, which all lie at the
// start of a run, spread 14 % under one factor for the whole run and 5 %
// under local ones.
const (
	// calibRounds sizes one calibration sample at about 0.15 s. A sample
	// runs in chunks of calibChunk rounds with a forced collection before
	// each, outside the timer: a round leaves 1.1 MB of garbage, and eight
	// rounds' worth stays below what any workload's own pass leaves, so
	// peak_rss_mb remains the workload's (40 MB on top of explore_warm's
	// 70 MB store raised it from 110 to 152 MB).
	calibRounds = 40
	calibChunk  = 8
	// calibRefS is what one sample takes on the development host in its
	// fast state; it only fixes the scale the timings are reported on.
	calibRefS = 0.150
	// calibShare is how much time a run spends calibrating, as a share of
	// the time it spends in cold rounds and passes. Back-to-back samples of
	// this identical work differ by 10-15 % on this host, several times
	// more than back-to-back passes do, so the factor's own error governs
	// the run's; 0.35 gives 25-35 samples and an error near 2.5 %.
	calibShare = 0.35
	// localSamples is how many calibration samples make one factor: with
	// three or four samples between two live passes, the ones a pass lies
	// between. Four gave the same spreads, twelve wider ones.
	localSamples = 8
)

// hostSpeed collects a run's calibration samples.
type hostSpeed struct {
	rounds  int // calibRounds, or one at smoke size
	samples []float64
	spentS  float64
}

// sample times one calibration. It runs outside every timer and counter.
func (h *hostSpeed) sample() {
	var d time.Duration
	for done := 0; done < h.rounds; done += calibChunk {
		runtime.GC()
		start := time.Now()
		calibWork(min(calibChunk, h.rounds-done))
		d += time.Since(start)
	}
	h.spentS += d.Seconds()
	h.samples = append(h.samples, d.Seconds()*float64(calibRounds)/float64(h.rounds))
}

// keepUp samples until calibration has had its share of measuredS, the
// seconds measured so far; called between cold rounds and passes, so the
// samples lie spread among them. The first call always takes one.
func (h *hostSpeed) keepUp(measuredS float64) {
	for h.spentS <= calibShare*measuredS {
		h.sample()
	}
}

// factorAt is what a wall-clock time is multiplied by to give the time on
// the reference host, below 1 when this host is the slower one, for
// something measured when mark samples had been taken: the reference over
// the median of the localSamples samples around that moment. It is called
// once the run has taken all its samples.
func (h *hostSpeed) factorAt(mark int) float64 {
	n := len(h.samples)
	lo := max(0, min(mark-localSamples/2, n-localSamples))
	return calibRefS / median(h.samples[lo:min(n, lo+localSamples)])
}

// scale returns the timings' wall-clock seconds and the same seconds each
// multiplied by its own factor.
func (h *hostSpeed) scale(ts []timing) (wall, scaled []float64) {
	for _, t := range ts {
		wall = append(wall, t.seconds)
		scaled = append(scaled, t.seconds*h.factorAt(t.mark))
	}
	return wall, scaled
}

// calibRecord is shaped like one feed record, so that the calibration
// leans on the standard-library code the measured paths lean on: JSON
// decode and encode, address and time parsing, sorting, map growth, and
// the allocator and collector under all of them.
type calibRecord struct {
	ID        int      `json:"id"`
	Family    string   `json:"family"`
	TargetIP  string   `json:"target_ip"`
	Timestamp string   `json:"timestamp"`
	BotIPs    []string `json:"bot_ips"`
	Weight    float64  `json:"weight"`
}

// calibDoc is 600 records as JSON lines, built once.
var calibDoc = sync.OnceValue(func() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	t0 := time.Date(2012, 8, 29, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 600; i++ {
		r := calibRecord{
			ID: i, Family: fmt.Sprintf("family%02d", i*7%23),
			TargetIP:  netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1}).String(),
			Timestamp: t0.Add(time.Duration(i*7919%86400) * time.Second).Format(time.RFC3339),
			Weight:    float64(i%97) / 7,
		}
		for j := 0; j < 6+i%5; j++ {
			r.BotIPs = append(r.BotIPs, netip.AddrFrom4([4]byte{172, 16, byte(i + j), byte(j * 31)}).String())
		}
		_ = enc.Encode(&r) // a bytes.Buffer and a plain struct: cannot fail
	}
	return buf.Bytes()
})

// calibSink keeps the compiler from discarding the calibration's results.
var calibSink int

// calibWork decodes the document, parses its addresses and times, sorts,
// groups by family and encodes the groups again, rounds times over. Its
// inputs are the harness's own and well formed, so parse errors cannot
// occur and are not looked at.
func calibWork(rounds int) {
	doc := calibDoc()
	for round := 0; round < rounds; round++ {
		dec := json.NewDecoder(bytes.NewReader(doc))
		var recs []calibRecord
		for {
			var r calibRecord
			if err := dec.Decode(&r); err != nil {
				break // io.EOF
			}
			recs = append(recs, r)
		}
		byFamily := make(map[string][]netip.Addr)
		var total float64
		for _, r := range recs {
			at, _ := time.Parse(time.RFC3339, r.Timestamp)
			total += r.Weight * float64(at.Unix()%97)
			for _, s := range r.BotIPs {
				ip, _ := netip.ParseAddr(s)
				byFamily[r.Family] = append(byFamily[r.Family], ip)
			}
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Timestamp < recs[j].Timestamp })
		for _, ips := range byFamily {
			sort.Slice(ips, func(i, j int) bool { return ips[i].Less(ips[j]) })
		}
		out, _ := json.Marshal(byFamily)
		calibSink += len(out) + len(recs) + int(total)
	}
}
