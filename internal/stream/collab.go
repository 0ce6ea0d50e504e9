package stream

import (
	"net/netip"
	"sort"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
)

// maxRecentCandidates bounds the live candidate ring exposed by snapshots
// and kept by MergeCollab.
const maxRecentCandidates = 32

// CollabCandidate is one detected (or still-open) collaborative attack:
// the live counterpart of a core.Collaboration, trimmed to the fields a
// dashboard needs.
type CollabCandidate struct {
	Target   string           `json:"target"`
	Start    time.Time        `json:"start"`
	Families []dataset.Family `json:"families"`
	Botnets  int              `json:"botnets"`
	Attacks  int              `json:"attacks"`

	// Seq is the global sequence number of the window's first attack and
	// Open marks a candidate qualified read-only from a still-open window.
	// Both exist so the sharded serve tier can interleave candidates from
	// disjoint target partitions back into this tracker's exact emission
	// order; they are internal bookkeeping, not part of the JSON shape.
	Seq  uint64 `json:"-"`
	Open bool   `json:"-"`
}

// CollabSummary is the live collaborations panel: Table VI as the batch
// core.CollabStats counts it, plus a bounded ring of the most recent
// candidates and the number of still-open windows.
type CollabSummary struct {
	core.CollabCounts
	// Recent holds the latest qualified candidates, oldest first.
	Recent []CollabCandidate `json:"recent"`
	// OpenWindows is the number of per-target start windows still inside
	// the 60 s horizon at snapshot time.
	OpenWindows int `json:"open_windows"`
}

// MergeCollab reassembles one tracker's summary from the summaries of
// trackers over disjoint target partitions of its feed. The counts merge;
// the candidate rings interleave back into the order a single tracker
// emits: closed candidates by the global sequence of their window's first
// attack (finalization follows window-creation order, which is seq order),
// then still-open ones by (start, target address) — snapshot's pending
// sort, by address value rather than lexically ("9.0.0.1" before
// "10.0.0.1"; an unparseable target sorts first).
func MergeCollab(parts ...*CollabSummary) CollabSummary {
	out := CollabSummary{CollabCounts: core.NewCollabCounts()}
	type openCandidate struct {
		CollabCandidate
		addr netip.Addr
	}
	var open []openCandidate
	for _, p := range parts {
		out.CollabCounts.Merge(&p.CollabCounts)
		out.OpenWindows += p.OpenWindows
		for _, cand := range p.Recent {
			if cand.Open {
				addr, _ := netip.ParseAddr(cand.Target)
				open = append(open, openCandidate{cand, addr})
			} else {
				out.Recent = append(out.Recent, cand)
			}
		}
	}
	sort.Slice(out.Recent, func(i, j int) bool { return out.Recent[i].Seq < out.Recent[j].Seq })
	sort.Slice(open, func(i, j int) bool {
		if !open[i].Start.Equal(open[j].Start) {
			return open[i].Start.Before(open[j].Start)
		}
		if open[i].addr != open[j].addr {
			return open[i].addr.Less(open[j].addr)
		}
		return open[i].Target < open[j].Target
	})
	for _, c := range open {
		out.Recent = append(out.Recent, c.CollabCandidate)
	}
	out.Recent = lastCandidates(out.Recent)
	return out
}

// lastCandidates trims a candidate list to the ring's bound.
func lastCandidates(recent []CollabCandidate) []CollabCandidate {
	if len(recent) > maxRecentCandidates {
		return recent[len(recent)-maxRecentCandidates:]
	}
	return recent
}

// collabTracker performs windowed cross-botnet collaboration detection:
// per target it accumulates attacks into 60 s start windows (anchored at
// the window's first attack, exactly like the batch grouping) and
// qualifies each window with core.QualifyCollaboration once event time
// moves past it. Memory is bounded by the attacks arriving inside any
// single start-window horizon.
type collabTracker struct {
	startWindow    time.Duration
	durationWindow time.Duration

	open  map[netip.Addr]*openGroup
	queue []*openGroup // anchor-ordered, for horizon expiry

	counts core.CollabCounts // over the closed windows
	recent []CollabCandidate // the closed windows' ring
}

type openGroup struct {
	target  netip.Addr
	anchor  time.Time
	seq     uint64 // global sequence of the window's first attack
	attacks []*dataset.Attack
	closed  bool
}

func newCollabTracker(startWindow, durationWindow time.Duration) *collabTracker {
	return &collabTracker{
		startWindow:    startWindow,
		durationWindow: durationWindow,
		open:           make(map[netip.Addr]*openGroup),
		counts:         core.NewCollabCounts(),
	}
}

// ingest routes one attack (arriving in global start order) into its
// target's current window, closing windows the event horizon has passed.
// seq is the attack's global sequence number; it stamps the window a new
// attack anchors so cross-shard merges can restore emission order.
func (t *collabTracker) ingest(a *dataset.Attack, seq uint64) {
	t.advance(a.Start)

	g := t.open[a.TargetIP]
	if g != nil && a.Start.Sub(g.anchor) < t.startWindow {
		g.attacks = append(g.attacks, a)
		return
	}
	if g != nil {
		// The target's previous window is out of range for this attack but
		// still queued; close it now so the new window replaces it.
		t.finalize(g)
	}
	g = &openGroup{target: a.TargetIP, anchor: a.Start, seq: seq, attacks: []*dataset.Attack{a}}
	t.open[a.TargetIP] = g
	t.queue = append(t.queue, g)
}

// advance expires every window whose 60 s horizon precedes event time now:
// no attack at or after now can join it, so it can be finalized and
// released. ingest calls it with each attack's start and Analyzer.Tick
// with the start of each attack homed on another shard, so windows close
// at the same global event times on every shard layout.
func (t *collabTracker) advance(now time.Time) {
	for len(t.queue) > 0 && now.Sub(t.queue[0].anchor) >= t.startWindow {
		g := t.queue[0]
		t.queue = t.queue[1:]
		t.finalize(g)
	}
}

// finalize qualifies a window once and releases its attack references.
func (t *collabTracker) finalize(g *openGroup) {
	if g.closed {
		return
	}
	g.closed = true
	if t.open[g.target] == g {
		delete(t.open, g.target)
	}
	if c := t.qualify(g); c != nil {
		t.recent = lastCandidates(append(t.recent, candidate(c, t.counts.Add(c), g.seq, false)))
	}
	g.attacks = nil
}

// qualify applies the batch criteria to one window.
func (t *collabTracker) qualify(g *openGroup) *core.Collaboration {
	if len(g.attacks) < 2 {
		return nil
	}
	return core.QualifyCollaboration(g.target.String(), g.attacks, t.durationWindow)
}

// candidate trims a qualified collaboration to its ring entry.
func candidate(c *core.Collaboration, botnets int, seq uint64, open bool) CollabCandidate {
	return CollabCandidate{
		Target:   c.Target,
		Start:    c.Start,
		Families: c.Families,
		Botnets:  botnets,
		Attacks:  len(c.Attacks),
		Seq:      seq,
		Open:     open,
	}
}

// snapshot aggregates closed windows plus a read-only qualification of the
// still-open ones, so an end-of-stream snapshot matches the batch detector
// exactly. It never mutates tracker state.
func (t *collabTracker) snapshot() CollabSummary {
	out := CollabSummary{
		CollabCounts: t.counts.Clone(),
		Recent:       append([]CollabCandidate(nil), t.recent...),
		OpenWindows:  len(t.open),
	}
	// Qualify open windows as the batch detector would at end of input.
	// Deterministic order (by anchor, then target) keeps Recent stable.
	pending := make([]*openGroup, 0, len(t.open))
	for _, g := range t.open {
		pending = append(pending, g)
	}
	sort.Slice(pending, func(i, j int) bool {
		if !pending[i].anchor.Equal(pending[j].anchor) {
			return pending[i].anchor.Before(pending[j].anchor)
		}
		return pending[i].target.Less(pending[j].target)
	})
	for _, g := range pending {
		if c := t.qualify(g); c != nil {
			out.Recent = append(out.Recent, candidate(c, out.CollabCounts.Add(c), g.seq, true))
		}
	}
	out.Recent = lastCandidates(out.Recent)
	return out
}
