package stream

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/stats"
)

// Scalars tracks the global-order scalar statistics of an attack feed: the
// statistics whose value depends on the *interleaving* of the whole stream
// rather than on any per-key partition — inter-attack gaps (§III-B),
// durations (§III-C), and the concurrent-load sweep (§II-B), plus the
// ingested count and event-time bounds.
//
// Scalars exists as its own type so the sharded serve tier can replicate
// exactly this state on every shard from a lightweight (id, start, end)
// tick per attack: because every shard folds the identical tick sequence
// through the identical code path, every shard reports bit-identical
// global scalar statistics, and the cross-shard merge can take them from
// any one healthy shard. stream.Analyzer embeds a Scalars for the
// single-process case, so single-process and sharded serving share one
// implementation by construction.
//
// Scalars is not safe for concurrent use; callers guard it (the Analyzer
// with its RWMutex, a shard worker with its own lock).
type Scalars struct {
	n          int
	firstStart time.Time
	lastStart  time.Time

	// Inter-attack gaps (§III-B): exact moments + counters, sketched
	// quantiles.
	gaps      stats.Online
	gapSketch *QuantileSketch
	gapZero   int
	gapSimult int

	// Durations (§III-C).
	durs       stats.Online
	durSketch  *QuantileSketch
	durUnder1m int
	durUnder4h int

	// Concurrent-load sweep (§II-B): a min-heap of active attacks' end
	// times plus a lazily advanced time-weighted integral.
	ends      endHeap
	active    int
	peak      int
	peakTime  time.Time
	sweepTime time.Time
	weightSum float64 // integral of active count over time, in seconds
	timeSum   float64
}

// NewScalars builds an empty scalar accumulator.
func NewScalars() *Scalars {
	return &Scalars{
		gapSketch: NewQuantileSketch(0),
		durSketch: NewQuantileSketch(0),
	}
}

// Observe folds one attack's (start, end) into the scalar state. Attacks
// must arrive in event-time order (non-decreasing start); id only labels
// the ErrOutOfOrder error.
func (sc *Scalars) Observe(id dataset.DDoSID, start, end time.Time) error {
	if sc.n > 0 && start.Before(sc.lastStart) {
		return fmt.Errorf("%w: %v < %v (attack %d)", ErrOutOfOrder, start, sc.lastStart, id)
	}
	if sc.n == 0 {
		sc.firstStart = start
		sc.sweepTime = start
	}

	// Inter-attack gap.
	if sc.n > 0 {
		gap := start.Sub(sc.lastStart).Seconds()
		sc.gaps.Add(gap)
		sc.gapSketch.Add(gap)
		if start.Equal(sc.lastStart) {
			sc.gapZero++
		}
		if gap < core.SimultaneousThreshold.Seconds() {
			sc.gapSimult++
		}
	}

	// Duration.
	dur := end.Sub(start).Seconds()
	sc.durs.Add(dur)
	sc.durSketch.Add(dur)
	if dur <= 60 {
		sc.durUnder1m++
	}
	if dur <= 4*3600 {
		sc.durUnder4h++
	}

	// Concurrent load: retire every attack that ended at or before this
	// start (ends sort before starts at the same instant, matching the
	// batch sweep's tie rule), then admit the new one. Zero-duration
	// attacks never contribute to the active count, as in the batch sweep.
	now := start.UnixNano()
	for len(sc.ends) > 0 && sc.ends[0] <= now {
		e := heap.Pop(&sc.ends).(int64)
		sc.advanceSweep(e)
		sc.active--
	}
	sc.advanceSweep(now)
	if end.After(start) {
		sc.active++
		heap.Push(&sc.ends, end.UnixNano())
		if sc.active > sc.peak {
			sc.peak = sc.active
			sc.peakTime = start
		}
	}

	sc.n++
	sc.lastStart = start
	return nil
}

// advanceSweep accumulates the active-count integral up to unix-nano t.
func (sc *Scalars) advanceSweep(t int64) {
	dt := time.Duration(t - sc.sweepTime.UnixNano()).Seconds()
	if dt > 0 {
		sc.weightSum += float64(sc.active) * dt
		sc.timeSum += dt
		sc.sweepTime = time.Unix(0, t).UTC()
	}
}

// N returns the number of attacks observed.
func (sc *Scalars) N() int { return sc.n }

// FirstStart returns the earliest observed start (zero before the first).
func (sc *Scalars) FirstStart() time.Time { return sc.firstStart }

// LastStart returns the latest observed start (zero before the first).
func (sc *Scalars) LastStart() time.Time { return sc.lastStart }

// Active returns the number of attacks in progress at LastStart.
func (sc *Scalars) Active() int { return sc.active }

// IntervalStats summarizes the inter-attack gaps observed so far.
func (sc *Scalars) IntervalStats() core.IntervalStats {
	st := core.IntervalStats{Summary: sketchSummary(&sc.gaps, sc.gapSketch)}
	if n := sc.gaps.N(); n > 0 {
		st.ExactZeroFrac = float64(sc.gapZero) / float64(n)
		st.SimultaneousFrac = float64(sc.gapSimult) / float64(n)
	}
	return st
}

// DurationStats summarizes the attack durations observed so far.
func (sc *Scalars) DurationStats() core.DurationStats {
	st := core.DurationStats{Summary: sketchSummary(&sc.durs, sc.durSketch)}
	if n := sc.durs.N(); n > 0 {
		st.FracUnder4h = float64(sc.durUnder4h) / float64(n)
		st.FracUnder60s = float64(sc.durUnder1m) / float64(n)
	}
	return st
}

// LoadStats finishes the time-weighted integral over a sorted copy of the
// active heap (retiring the still-active attacks at their ends, earliest
// first), so at end of stream TimeWeightedMean matches the batch sweep
// exactly.
func (sc *Scalars) LoadStats() core.LoadStats {
	st := core.LoadStats{Peak: sc.peak, PeakTime: sc.peakTime}
	weight, total := sc.weightSum, sc.timeSum
	if len(sc.ends) > 0 {
		rest := slices.Clone(sc.ends)
		slices.Sort(rest)
		active := sc.active
		sweep := sc.sweepTime.UnixNano()
		for _, e := range rest {
			dt := time.Duration(e - sweep).Seconds()
			if dt > 0 {
				weight += float64(active) * dt
				total += dt
				sweep = e
			}
			active--
		}
	}
	if total > 0 {
		st.TimeWeightedMean = weight / total
	}
	if math.IsNaN(st.TimeWeightedMean) {
		st.TimeWeightedMean = 0
	}
	return st
}
