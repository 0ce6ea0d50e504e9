package core

import (
	"maps"
	"slices"
	"sort"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/memo"
	"botscope/internal/par"
)

// CollabDurationWindow is the paper's second collaboration criterion: the
// participating attacks' durations differ by at most half an hour (§V).
const CollabDurationWindow = 30 * time.Minute

// Collaboration is one detected collaborative attack: at least two attacks
// by distinct botnets on the same target, starting within 60 seconds, with
// durations within half an hour of each other.
type Collaboration struct {
	Target string
	Start  time.Time
	// Rows are the members in qualifier order: store rows (read through
	// Store.AttackAt) for a detected collaboration, positions in the group
	// for QualifyCollaboration.
	Rows []int32
	// Botnets is the number of distinct botnet IDs involved — Fig 15's
	// average is published.MeanBotnets.
	Botnets int
	// Families lists the distinct families involved, sorted.
	Families []dataset.Family
}

// Intra reports whether the collaboration stays inside one family
// (different botnet generations of the same malware).
func (c *Collaboration) Intra() bool { return len(c.Families) == 1 }

// DetectCollaborations scans the workload for collaborative attacks using
// the paper's criteria (60 s start window, 30 min duration window).
func DetectCollaborations(s *dataset.Store) []*Collaboration {
	return DetectCollaborationsWindow(s, SimultaneousThreshold, CollabDurationWindow)
}

// DetectCollaborationsWindow is DetectCollaborations with explicit
// thresholds, used by the window-sensitivity ablation. Attacks on one
// target are grouped by start windows of startWindow; a group qualifies
// when it has >= 2 distinct botnets and its duration spread fits
// durationWindow.
//
// Detection is sharded by target over the par pool. Targets are
// independent — an attack group never spans two target IPs — so each
// worker detects over a disjoint target shard. Shards are merged in
// sorted-target order and the merged list is sorted by the total
// (Start, Target) order, making the output identical for every
// GOMAXPROCS.
func DetectCollaborationsWindow(s *dataset.Store, startWindow, durationWindow time.Duration) []*Collaboration {
	tids := s.TargetIDs()
	starts, durs := attackTimes(s)
	shards := par.ChunkMap(tids.Len(), func(lo, hi int) []*Collaboration {
		d := &collabDetector{s: s, starts: starts, startWindow: startWindow, q: qualifier{
			durs:   durs,
			window: int64(durationWindow),
			member: func(row int32) (dataset.BotnetID, dataset.Family) {
				v := s.AttackAt(int(row))
				return v.BotnetID(), v.Family()
			},
		}}
		var shard []*Collaboration
		for k := lo; k < hi; k++ {
			tid, n := tids.At(k), len(shard)
			if shard = d.target(shard, s.TargetRows(tid)); len(shard) > n {
				target := s.TargetAddr(tid).String()
				for _, c := range shard[n:] {
					c.Target = target
				}
			}
		}
		return shard
	})
	var out []*Collaboration
	for _, shard := range shards {
		out = append(out, shard...)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// attackTimes extracts every attack's start and duration into dense
// row-indexed arrays with one sequential pass over the start/end columns.
// The detector's window scan and duration sort both sit on the hot path,
// and an array load per probe beats reconstructing a column view per
// probe by a wide margin on large stores.
func attackTimes(s *dataset.Store) (starts, durs []int64) {
	n := s.NumAttacks()
	starts = make([]int64, n)
	durs = make([]int64, n)
	for i := 0; i < n; i++ {
		v := s.AttackAt(i)
		starts[i] = v.StartNano()
		durs[i] = int64(v.Duration())
	}
	return starts, durs
}

// collabDetector groups one shard's targets into start windows over the
// per-row start column and qualifies them on the columns too, through
// scratch it reuses: only a group that qualifies allocates.
type collabDetector struct {
	s           *dataset.Store
	starts      []int64 // per-row attack starts, UTC nanoseconds
	startWindow time.Duration
	q           qualifier // over attack rows and the per-row duration column
	scratch     []int32   // reused copy of the group under test
}

// target appends the qualifying collaborations of one target's
// chronologically ordered attack rows, with their Target left for the
// caller to fill. Grouping and qualification both run on the columns, and
// an event holds its members as rows.
func (d *collabDetector) target(out []*Collaboration, rows memo.View[int32]) []*Collaboration {
	starts, window := d.starts, int64(d.startWindow)
	i := 0
	for i < rows.Len() {
		si := starts[rows.At(i)]
		j := i + 1
		for j < rows.Len() && starts[rows.At(j)]-si < window {
			j++
		}
		if j-i >= 2 {
			d.scratch = d.scratch[:0]
			for k := i; k < j; k++ {
				d.scratch = append(d.scratch, rows.At(k))
			}
			if subset, fams, botnets := d.q.qualify(d.scratch); subset != nil {
				out = append(out, d.collaboration(subset, fams, botnets))
			}
		}
		i = j
	}
	return out
}

// collaboration holds one qualifying subset as its rows, in subset order;
// the event starts with its earliest member.
func (d *collabDetector) collaboration(subset []int32, fams []dataset.Family, botnets int) *Collaboration {
	first := subset[0]
	for _, row := range subset[1:] {
		if d.starts[row] < d.starts[first] {
			first = row
		}
	}
	return &Collaboration{Start: d.s.AttackAt(int(first)).Start(), Rows: slices.Clone(subset), Botnets: botnets, Families: fams}
}

// qualifier is the §V criterion over one start-window group on a single
// target: the widest subset whose durations fit the duration window
// qualifies when it has at least two members from at least two distinct
// botnets. Members are indices, so the detector (attack rows, the per-row
// duration column) and QualifyCollaboration (positions in its group, a
// local duration scratch) run the same code and therefore pick the same
// subset in the same member order.
type qualifier struct {
	durs    []int64 // member index -> duration, nanoseconds
	window  int64   // duration window, nanoseconds
	member  func(int32) (dataset.BotnetID, dataset.Family)
	botnets []dataset.BotnetID // reused distinct-botnet scratch
	fams    []dataset.Family   // reused distinct-family scratch
}

// qualify sorts group by duration in place and returns the qualifying
// subset — a sub-slice of group — with its distinct families, sorted, and
// its distinct-botnet count, or nil when the group does not qualify.
func (q *qualifier) qualify(group []int32) ([]int32, []dataset.Family, int) {
	durs := q.durs
	// Candidate groups are almost always tiny. sort.Slice hands any range
	// of <= 12 elements straight to its insertion sort, so the inlined
	// insertion sort below produces the exact same permutation while
	// skipping the func-value indirection and the interface conversion.
	if len(group) <= 12 {
		for i := 1; i < len(group); i++ {
			for j := i; j > 0 && durs[group[j]] < durs[group[j-1]]; j-- {
				group[j], group[j-1] = group[j-1], group[j]
			}
		}
	} else {
		sort.Slice(group, func(i, j int) bool { return durs[group[i]] < durs[group[j]] })
	}
	bestLo, bestHi := 0, 0
	lo := 0
	for hi := range group {
		for durs[group[hi]]-durs[group[lo]] > q.window {
			lo++
		}
		if hi-lo > bestHi-bestLo {
			bestLo, bestHi = lo, hi
		}
	}
	subset := group[bestLo : bestHi+1]
	if len(subset) < 2 {
		return nil, nil, 0
	}
	// Distinctness over a handful of members: linear-scan dedup into
	// reused scratch slices.
	botnets, fams := q.botnets[:0], q.fams[:0]
	for _, m := range subset {
		b, f := q.member(m)
		if !containsBotnet(botnets, b) {
			botnets = append(botnets, b)
		}
		if !containsFamily(fams, f) {
			fams = append(fams, f)
		}
	}
	q.botnets, q.fams = botnets, fams
	if len(botnets) < 2 {
		return nil, nil, 0
	}
	famList := append([]dataset.Family(nil), fams...)
	slices.Sort(famList)
	return subset, famList, len(botnets)
}

func containsBotnet(list []dataset.BotnetID, b dataset.BotnetID) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

func containsFamily(list []dataset.Family, f dataset.Family) bool {
	for _, x := range list {
		if x == f {
			return true
		}
	}
	return false
}

// QualifyCollaboration applies the §V criterion to one start-window group
// of attack records on a single target, trimming the group to the largest
// duration-compatible subset, whose Rows are positions in group; nil when
// the group does not qualify. It is the record face of the detector's
// qualifier, for the streaming analyzer's windowed candidate groups.
func QualifyCollaboration(target string, group []*dataset.Attack, durationWindow time.Duration) *Collaboration {
	idx, durs := make([]int32, len(group)), make([]int64, len(group))
	for i, a := range group {
		idx[i], durs[i] = int32(i), int64(a.Duration())
	}
	q := qualifier{
		durs:    durs,
		window:  int64(durationWindow),
		member:  func(i int32) (dataset.BotnetID, dataset.Family) { return group[i].BotnetID, group[i].Family },
		botnets: make([]dataset.BotnetID, 0, len(group)),
		fams:    make([]dataset.Family, 0, len(group)),
	}
	subset, fams, botnets := q.qualify(idx)
	if subset == nil {
		return nil
	}
	c := &Collaboration{Target: target, Start: group[subset[0]].Start, Rows: subset, Botnets: botnets, Families: fams}
	for _, i := range subset {
		if group[i].Start.Before(c.Start) {
			c.Start = group[i].Start
		}
	}
	return c
}

// CollabCounts is Table VI as a mergeable count: per-family intra- and
// inter-family collaborations, inter-family pairs, and the mean botnets per
// collaboration (published.MeanBotnets) kept as its integer numerator and
// denominator. The batch table adds detected collaborations, the streaming
// tracker holds one, and the cluster frontend merges the shards'; every
// field is a sum, so disjoint target partitions merge to the whole in any
// order. The JSON shape is the live collaborations panel's.
type CollabCounts struct {
	TotalIntra  int                    `json:"total_intra"`
	TotalInter  int                    `json:"total_inter"`
	MeanBotnets float64                `json:"mean_botnets"`
	Intra       map[dataset.Family]int `json:"intra"`
	Inter       map[dataset.Family]int `json:"inter"`
	// PairCounts counts inter-family pairs, keyed "famA+famB" with A < B
	// (the paper: Dirtjumper+Pandora dominates).
	PairCounts map[string]int `json:"pair_counts"`

	// Qualified and BotnetTotal are MeanBotnets' denominator and numerator.
	Qualified   int `json:"-"`
	BotnetTotal int `json:"-"`
}

// NewCollabCounts returns an empty count with its maps made: an empty
// table renders {} rather than null.
func NewCollabCounts() CollabCounts {
	return CollabCounts{
		Intra:      make(map[dataset.Family]int),
		Inter:      make(map[dataset.Family]int),
		PairCounts: make(map[string]int),
	}
}

// Add counts one collaboration.
func (cc *CollabCounts) Add(c *Collaboration) {
	cc.Qualified++
	cc.BotnetTotal += c.Botnets
	if c.Intra() {
		cc.TotalIntra++
		cc.Intra[c.Families[0]]++
	} else {
		cc.TotalInter++
		for _, f := range c.Families {
			cc.Inter[f]++
		}
		countFamilyPairs(cc.PairCounts, c.Families)
	}
	cc.mean()
}

// Merge adds o's counts.
func (cc *CollabCounts) Merge(o *CollabCounts) {
	cc.TotalIntra += o.TotalIntra
	cc.TotalInter += o.TotalInter
	cc.Qualified += o.Qualified
	cc.BotnetTotal += o.BotnetTotal
	for f, n := range o.Intra {
		cc.Intra[f] += n
	}
	for f, n := range o.Inter {
		cc.Inter[f] += n
	}
	for p, n := range o.PairCounts {
		cc.PairCounts[p] += n
	}
	cc.mean()
}

func (cc *CollabCounts) mean() {
	if cc.Qualified > 0 {
		cc.MeanBotnets = float64(cc.BotnetTotal) / float64(cc.Qualified)
	}
}

// Clone returns a copy that shares no map with cc.
func (cc *CollabCounts) Clone() CollabCounts {
	out := *cc
	out.Intra, out.Inter, out.PairCounts = maps.Clone(cc.Intra), maps.Clone(cc.Inter), maps.Clone(cc.PairCounts)
	return out
}

// countFamilyPairs adds one to every unordered pair of the sorted family
// list, keyed "famA+famB" with A < B.
func countFamilyPairs(counts map[string]int, fams []dataset.Family) {
	for x := 0; x < len(fams); x++ {
		for y := x + 1; y < len(fams); y++ {
			counts[string(fams[x])+"+"+string(fams[y])]++
		}
	}
}

// CollabStats is Table VI over a detected collaboration list.
type CollabStats struct {
	CollabCounts
	Collaborations memo.View[*Collaboration]
}

// AnalyzeCollaborationsFrom aggregates Table VI over a detected
// collaboration list, so callers that need both the table and the
// per-pair drill-downs detect once and share the result.
func AnalyzeCollaborationsFrom(collabs memo.View[*Collaboration]) CollabStats {
	out := CollabStats{CollabCounts: NewCollabCounts(), Collaborations: collabs}
	for _, c := range collabs.All() {
		out.Add(c)
	}
	return out
}

// PairSummary describes the in-depth Dirtjumper-Pandora style analysis of
// §V-A: targets, countries, organizations, ASes, and per-family duration
// means across one inter-family pair's collaborations.
type PairSummary struct {
	A, B dataset.Family
	// Collaborations involving exactly {A, B}.
	Count         int
	UniqueTargets int
	Countries     int
	Organizations int
	ASNs          int
	// TopCountries are the most frequent victim countries of the pair.
	TopCountries []CountryCount
	// MeanDurationA/B are the mean durations (seconds) per family across
	// the pair's collaborations (paper: Pandora 6,420 s, Dirtjumper 5,083 s).
	MeanDurationA float64
	MeanDurationB float64
	// Span is the time from first to last collaboration (paper: ~16 weeks).
	Span time.Duration
	// Events carries the underlying collaborations for plotting (Fig 16).
	Events []*Collaboration
}

// AnalyzePairFrom summarizes the collaborations between two specific
// families in a collaboration list detected on s.
func AnalyzePairFrom(s *dataset.Store, collabs memo.View[*Collaboration], a, b dataset.Family) PairSummary {
	out := PairSummary{A: a, B: b}
	targets := make(map[string]bool)
	countries := make(map[string]int)
	orgs := make(map[string]bool)
	asns := make(map[int]bool)
	var (
		sumA, sumB   float64
		nA, nB       int
		first, last  time.Time
		haveAnyEvent bool
	)
	for _, c := range collabs.All() {
		if len(c.Families) != 2 || c.Families[0] != minFam(a, b) || c.Families[1] != maxFam(a, b) {
			continue
		}
		out.Count++
		out.Events = append(out.Events, c)
		targets[c.Target] = true
		for _, row := range c.Rows {
			v := s.AttackAt(int(row))
			countries[v.TargetCountry()]++
			orgs[v.TargetOrg()] = true
			asns[v.TargetASN()] = true
			switch v.Family() {
			case a:
				sumA += v.Duration().Seconds()
				nA++
			case b:
				sumB += v.Duration().Seconds()
				nB++
			}
		}
		if !haveAnyEvent || c.Start.Before(first) {
			first = c.Start
		}
		if !haveAnyEvent || c.Start.After(last) {
			last = c.Start
		}
		haveAnyEvent = true
	}
	out.UniqueTargets = len(targets)
	out.Countries = len(countries)
	out.Organizations = len(orgs)
	out.ASNs = len(asns)
	for cc, n := range countries {
		out.TopCountries = append(out.TopCountries, CountryCount{CC: cc, Count: n})
	}
	sort.Slice(out.TopCountries, func(i, j int) bool {
		if out.TopCountries[i].Count != out.TopCountries[j].Count {
			return out.TopCountries[i].Count > out.TopCountries[j].Count
		}
		return out.TopCountries[i].CC < out.TopCountries[j].CC
	})
	if len(out.TopCountries) > 5 {
		out.TopCountries = out.TopCountries[:5]
	}
	if nA > 0 {
		out.MeanDurationA = sumA / float64(nA)
	}
	if nB > 0 {
		out.MeanDurationB = sumB / float64(nB)
	}
	if haveAnyEvent {
		out.Span = last.Sub(first)
	}
	return out
}

func minFam(a, b dataset.Family) dataset.Family {
	if a < b {
		return a
	}
	return b
}

func maxFam(a, b dataset.Family) dataset.Family {
	if a < b {
		return b
	}
	return a
}
