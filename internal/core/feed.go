package core

import (
	"errors"
	"slices"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/stats"
)

// SimultaneousThreshold is the 60-second window inside which the paper
// treats two launches as concurrent (§II-D, §V).
const SimultaneousThreshold = 60 * time.Second

// ShortDuration and LongDuration are §III-C's duration thresholds: under
// 10 % of attacks are shorter than a minute (which justifies the 60 s
// attack-splitting rule), and 80 % are shorter than four hours.
const (
	ShortDuration = time.Minute
	LongDuration  = 4 * time.Hour
)

// Feed is the one definition of the whole-feed statistics — §III-B's
// intervals, §III-C's durations and §II-B's concurrent load — folded over
// a start-ordered feed. The batch products run an exact Feed over the
// store, the live tiers (stream.Scalars) a live one. Reading never mutates
// the fold; an exact fold's load points share its array, so they stay
// valid until its next Observe. A Feed is not safe for concurrent use, but
// reads of a live Feed write nothing it holds.
type Feed struct {
	n         int
	lastStart int64
	gaps      half // marks: exactly zero, simultaneous
	durs      half // marks: shorter than ShortDuration, than LongDuration
	load      loadSweep
}

// NewFeed returns an exact fold, which keeps every gap, duration and load
// point, presized for n attacks.
func NewFeed(n int) *Feed {
	f := &Feed{load: loadSweep{keep: true, pts: make([]LoadPoint, 0, 2*n)}}
	f.gaps.xs = make([]float64, 0, max(n-1, 0))
	f.durs.xs = make([]float64, 0, n)
	return f
}

// NewLiveFeed returns a fold that keeps moments, quantile sketches and the
// active attacks, nothing per attack beyond those.
func NewLiveFeed() *Feed {
	f := &Feed{}
	f.gaps.sketch = stats.NewQuantileSketch(0)
	f.durs.sketch = stats.NewQuantileSketch(0)
	return f
}

// FoldStore folds the workload's attacks, in row order, into an exact Feed.
func FoldStore(s *dataset.Store) *Feed {
	n := s.AttackRows()
	f := NewFeed(n)
	for i := 0; i < n; i++ {
		v := s.AttackAt(i)
		f.Observe(v.StartNano(), v.EndNano())
	}
	return f
}

// Observe folds one attack's start and end, in Unix nanoseconds. Starts
// must not decrease; the caller holds that order.
func (f *Feed) Observe(start, end int64) {
	if f.n == 0 {
		f.load.at = start
	} else {
		gap := time.Duration(start - f.lastStart).Seconds()
		f.gaps.add(gap)
		f.gaps.mark(gapMarks(gap))
	}
	dur := time.Duration(end - start).Seconds()
	f.durs.add(dur)
	f.durs.mark(durationMarks(dur))
	f.load.observe(start, end)
	f.n++
	f.lastStart = start
}

// gapMarks are §III-B's two tests of a gap: exactly zero, and simultaneous.
func gapMarks(gap float64) (bool, bool) {
	return stats.IsZero(gap), gap < SimultaneousThreshold.Seconds()
}

// durationMarks are §III-C's two tests of a duration.
func durationMarks(dur float64) (bool, bool) {
	return shorterThan(dur, ShortDuration), shorterThan(dur, LongDuration)
}

// shorterThan is §III-C's "shorter than", read as at most: an attack of
// exactly 60 s counts as short. The generator clamps hundreds of attacks
// to exactly 60 s and 4 h, so the strict reading moves Figure 7; ROADMAP
// item 2 flips this one comparison to follow the text.
func shorterThan(dur float64, limit time.Duration) bool { return dur <= limit.Seconds() }

// N returns the number of attacks observed.
func (f *Feed) N() int { return f.n }

// Active returns the number of attacks in progress at the latest start.
func (f *Feed) Active() int { return f.load.active }

// Intervals returns an exact fold's gaps between consecutive starts (a
// live fold keeps none) and their §III-B summary, or an error before the
// second attack.
func (f *Feed) Intervals() ([]float64, IntervalStats, error) {
	st, err := f.gaps.intervals()
	return f.gaps.xs, st, err
}

// Durations returns an exact fold's durations in start order and their
// §III-C summary, or an error before the first attack.
func (f *Feed) Durations() ([]float64, DurationStats, error) {
	st, err := f.durs.durations()
	return f.durs.xs, st, err
}

// Load returns an exact fold's §II-B load series and the summary, the
// still-active attacks retired on a sorted copy of the heap.
func (f *Feed) Load() ([]LoadPoint, LoadStats, error) {
	if f.n == 0 {
		return nil, LoadStats{}, errors.New("core: empty workload")
	}
	tail := f.load // its points go past the held ones, in capacity the fold does not count
	rest := slices.Clone(f.load.ends)
	slices.Sort(rest)
	for _, e := range rest {
		tail.advance(e)
		tail.active--
	}
	tail.close()
	st := LoadStats{Peak: tail.peak, PeakTime: tail.peakTime}
	if tail.span > 0 {
		st.TimeWeightedMean = tail.weight / tail.span
	}
	return slices.Clip(tail.pts), st, nil
}

// half is one of the fold's two samples — every value in an exact fold,
// moments and a quantile sketch in a live one — and its two mark counts.
type half struct {
	xs      []float64
	moments stats.Online
	sketch  *stats.QuantileSketch // nil in an exact fold
	n, a, b int
}

func (h *half) add(x float64) {
	if h.sketch == nil {
		h.xs = append(h.xs, x)
		return
	}
	h.moments.Add(x)
	h.sketch.Add(x)
}

func (h *half) mark(a, b bool) {
	h.n++
	if a {
		h.a++
	}
	if b {
		h.b++
	}
}

// summary is stats.Summarize or the moments with sketched quantiles. Below
// two values StdDev is 0, not NaN, so a summary always encodes as JSON.
func (h *half) summary() stats.Summary {
	var sum stats.Summary
	if h.sketch == nil {
		sum = stats.Summarize(h.xs)
	} else {
		sum = stats.Summary{
			N: h.moments.N(), Mean: h.moments.Mean(), StdDev: h.moments.StdDev(),
			Min: h.moments.Min(), Max: h.moments.Max(), Median: h.sketch.Quantile(0.5),
			P80: h.sketch.Quantile(0.8), P95: h.sketch.Quantile(0.95),
		}
	}
	if sum.N < 2 {
		sum.StdDev = 0
	}
	return sum
}

func (h *half) share(marked int) float64 { return float64(marked) / float64(h.n) }

// IntervalStats carries the headline interval numbers the paper reports
// in §III-B.
type IntervalStats struct {
	stats.Summary
	// SimultaneousFrac is the fraction of gaps below the 60 s threshold.
	SimultaneousFrac float64
	// ExactZeroFrac is the fraction of gaps that are exactly zero.
	ExactZeroFrac float64
}

func (h *half) intervals() (IntervalStats, error) {
	if h.n == 0 {
		return IntervalStats{}, errors.New("core: no intervals to analyze")
	}
	return IntervalStats{Summary: h.summary(), SimultaneousFrac: h.share(h.b), ExactZeroFrac: h.share(h.a)}, nil
}

// AnalyzeIntervals summarizes a gap series as the fold's §III-B half does.
// The error is non-nil for an empty series.
func AnalyzeIntervals(gaps []float64) (IntervalStats, error) {
	h := half{xs: gaps}
	for _, g := range gaps {
		h.mark(gapMarks(g))
	}
	return h.intervals()
}

// DurationStats carries the §III-C headline numbers: the paper reports
// mean 10,308 s, median 1,766 s, std 18,475 s, and 80% under 13,882 s
// (about four hours).
type DurationStats struct {
	stats.Summary
	// FracUnder4h is the fraction of attacks shorter than LongDuration.
	FracUnder4h float64
	// FracUnder60s is the fraction shorter than ShortDuration.
	FracUnder60s float64
}

func (h *half) durations() (DurationStats, error) {
	if h.n == 0 {
		return DurationStats{}, errors.New("core: no durations to analyze")
	}
	return DurationStats{Summary: h.summary(), FracUnder4h: h.share(h.b), FracUnder60s: h.share(h.a)}, nil
}

// AnalyzeDurations summarizes a duration series as the fold's §III-C half
// does. The error is non-nil for an empty series.
func AnalyzeDurations(durs []float64) (DurationStats, error) {
	h := half{xs: durs}
	for _, d := range durs {
		h.mark(durationMarks(d))
	}
	return h.durations()
}

// ConcurrentLoad returns the workload's §II-B load: the attacks in progress
// at every start/end boundary, the peak and the time-weighted average.
func ConcurrentLoad(s *dataset.Store) ([]LoadPoint, LoadStats, error) {
	return FoldStore(s).Load()
}

// LoadPoint is one step of the concurrent-attack load series: how many
// attacks are in progress just after Time.
type LoadPoint struct {
	Time   time.Time
	Active int
}

// LoadStats summarizes the concurrent-load sweep.
type LoadStats struct {
	// Peak is the maximum number of simultaneously active attacks.
	Peak int
	// PeakTime is when the peak was first reached.
	PeakTime time.Time
	// TimeWeightedMean is the average number of active attacks from the
	// first start to the last end (the paper reports 243 simultaneous
	// attacks on average).
	TimeWeightedMean float64
}

// loadSweep is the fold's §II-B half, online over a min-heap of the active
// attacks' ends. Before each start it retires every end at or before it; a
// zero-duration attack opens its instant but never enters the heap. An
// instant's point is emitted once, after all its boundaries — the tie
// rule: ends apply before starts, and a zero-duration attack never shows.
type loadSweep struct {
	ends         endHeap
	at           int64 // the open instant
	active       int   // attacks in progress just after at
	peak         int
	peakTime     time.Time
	weight, span float64     // integral of active over time, and the time, in seconds
	keep         bool        // an exact fold keeps the points
	pts          []LoadPoint // the closed instants'
}

func (l *loadSweep) observe(start, end int64) {
	for len(l.ends) > 0 && l.ends[0] <= start {
		l.advance(l.ends.pop())
		l.active--
	}
	l.advance(start)
	if end > start {
		l.ends.push(end)
		l.active++
	}
}

// advance closes the open instant and opens t, integrating the active
// count over the time between; at the open instant it does nothing.
func (l *loadSweep) advance(t int64) {
	if t == l.at {
		return
	}
	l.close()
	dt := time.Duration(t - l.at).Seconds()
	l.weight += float64(l.active) * dt
	l.span += dt
	l.at = t
}

// close emits the open instant's point and checks it for a new peak.
func (l *loadSweep) close() {
	if l.keep {
		l.pts = append(l.pts, LoadPoint{Time: time.Unix(0, l.at).UTC(), Active: l.active})
	}
	if l.active > l.peak {
		l.peak, l.peakTime = l.active, time.Unix(0, l.at).UTC()
	}
}

// endHeap is a min-heap of end nanoseconds.
type endHeap []int64

func (h *endHeap) push(e int64) {
	s := append(*h, e)
	for i := len(s) - 1; i > 0 && s[(i-1)/2] > s[i]; i = (i - 1) / 2 {
		s[(i-1)/2], s[i] = s[i], s[(i-1)/2]
	}
	*h = s
}

func (h *endHeap) pop() int64 {
	s := *h
	top, last := s[0], len(s)-1
	s[0], s = s[last], s[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < len(s) && s[c+1] < s[c] {
			c++
		}
		if c >= len(s) || s[i] <= s[c] {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
	*h = s
	return top
}
