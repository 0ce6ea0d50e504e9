package core

import (
	"sort"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/par"
)

// CollabDurationWindow is the paper's second collaboration criterion: the
// participating attacks' durations differ by at most half an hour (§V).
const CollabDurationWindow = 30 * time.Minute

// Collaboration is one detected collaborative attack: at least two attacks
// by distinct botnets on the same target, starting within 60 seconds, with
// durations within half an hour of each other.
type Collaboration struct {
	Target  string
	Start   time.Time
	Attacks []*dataset.Attack
	// Families lists the distinct families involved, sorted.
	Families []dataset.Family
	// rows holds the member attack rows between column-native detection
	// and the batched record build; nil once Attacks is filled.
	rows []int32
}

// Intra reports whether the collaboration stays inside one family
// (different botnet generations of the same malware).
func (c *Collaboration) Intra() bool { return len(c.Families) == 1 }

// Botnets returns the number of distinct botnet IDs involved — the paper's
// Fig 15 reports an average of 2.19.
func (c *Collaboration) Botnets() int {
	seen := make(map[dataset.BotnetID]bool, len(c.Attacks))
	for _, a := range c.Attacks {
		seen[a.BotnetID] = true
	}
	return len(seen)
}

// DetectCollaborations scans the workload for collaborative attacks using
// the paper's criteria (60 s start window, 30 min duration window).
func DetectCollaborations(s *dataset.Store) []*Collaboration {
	return DetectCollaborationsWindow(s, SimultaneousThreshold, CollabDurationWindow)
}

// DetectCollaborationsWindow is DetectCollaborations with explicit
// thresholds, used by the window-sensitivity ablation. Attacks on one
// target are grouped by start windows of startWindow; a group qualifies
// when it has >= 2 distinct botnets and its duration spread fits
// durationWindow. Detection is sharded by target across all cores.
func DetectCollaborationsWindow(s *dataset.Store, startWindow, durationWindow time.Duration) []*Collaboration {
	return detectCollaborations(s, startWindow, durationWindow, 0)
}

// detectCollaborations is the detector with its worker count exposed
// (0 = all cores, 1 = sequential) for the parity tests. Targets are
// independent — an attack group never spans two target IPs — so each
// worker detects over a disjoint target shard. Shards are merged in
// sorted-target order and the merged list is sorted by the total
// (Start, Target) order, making the output identical for every worker
// count.
func detectCollaborations(s *dataset.Store, startWindow, durationWindow time.Duration, workers int) []*Collaboration {
	tids := s.TargetIDs()
	starts, durs := attackTimes(s)
	shards := par.ChunkMap(workers, len(tids), func(lo, hi int) []*Collaboration {
		d := &collabDetector{s: s, starts: starts, durs: durs, startWindow: startWindow, durationWindow: durationWindow}
		var shard []*Collaboration
		for _, tid := range tids[lo:hi] {
			shard = d.target(shard, s.TargetAddr(tid).String(), s.TargetRows(tid))
		}
		return shard
	})
	var out []*Collaboration
	for _, shard := range shards {
		out = append(out, shard...)
	}
	materializeCollabAttacks(s, out)
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// materializeCollabAttacks fills every detected collaboration's member
// records in one batch. Member rows across collaborations never overlap
// (a row belongs to one target and one start window), so the batch visits
// them in ascending row order — the column and reference-arena reads
// sweep forward instead of hopping per collaboration, and the record
// arenas are allocated once for the whole detection.
func materializeCollabAttacks(s *dataset.Store, out []*Collaboration) {
	total := 0
	for _, c := range out {
		total += len(c.rows)
	}
	if total == 0 {
		return
	}
	rows := make([]int32, 0, total)
	slotC := make([]*Collaboration, 0, total)
	slotI := make([]int, 0, total)
	for _, c := range out {
		c.Attacks = make([]*dataset.Attack, len(c.rows))
		for i, row := range c.rows {
			rows = append(rows, row)
			slotC = append(slotC, c)
			slotI = append(slotI, i)
		}
		c.rows = nil
	}
	ord := make([]int, total)
	for k := range ord {
		ord[k] = k
	}
	sort.Slice(ord, func(a, b int) bool { return rows[ord[a]] < rows[ord[b]] })
	sortedRows := make([]int32, total)
	for k, o := range ord {
		sortedRows[k] = rows[o]
	}
	attacks := s.AttackRecords(sortedRows)
	for k, o := range ord {
		slotC[o].Attacks[slotI[o]] = attacks[k]
	}
	for _, c := range out {
		start := c.Attacks[0].Start
		for _, a := range c.Attacks[1:] {
			if a.Start.Before(start) {
				start = a.Start
			}
		}
		c.Start = start
	}
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

// collabDetector carries the shared read-only detection inputs plus one
// shard-local sort scratch, so per-group qualification allocates only for
// groups that actually qualify.
type collabDetector struct {
	s              *dataset.Store
	starts         []int64 // per-row attack starts, UTC nanoseconds
	durs           []int64 // per-row attack durations, nanoseconds
	startWindow    time.Duration
	durationWindow time.Duration
	scratch        []int32            // reused duration-sort buffer; never escapes a qualify call
	botnets        []dataset.BotnetID // reused distinct-botnet scratch
	fams           []dataset.Family   // reused distinct-family scratch
}

// target appends the qualifying collaborations of one target's
// chronologically ordered attack rows. Grouping and qualification both
// run on the columns; only the members of a qualifying subset
// materialize attack records.
func (d *collabDetector) target(out []*Collaboration, target string, rows []int32) []*Collaboration {
	starts, window := d.starts, int64(d.startWindow)
	i := 0
	for i < len(rows) {
		si := starts[rows[i]]
		j := i + 1
		for j < len(rows) && starts[rows[j]]-si < window {
			j++
		}
		if j-i >= 2 {
			if c := d.qualify(target, rows[i:j]); c != nil {
				out = append(out, c)
			}
		}
		i = j
	}
	return out
}

// qualify applies QualifyCollaboration's criteria to one start-window
// group of attack rows using column loads only, so candidate groups that
// fail the botnet-distinctness or duration-window tests never build a
// record. The duration sort sees the same initial order and the same
// comparator outcomes as the record-face qualifier (durs holds the same
// nanosecond difference Attack.Duration returns), so the detected subset
// — and the member order inside it — is identical.
func (d *collabDetector) qualify(target string, group []int32) *Collaboration {
	s, durs := d.s, d.durs
	sorted := append(d.scratch[:0], group...)
	d.scratch = sorted
	// Candidate groups are almost always tiny. sort.Slice hands any range
	// of <= 12 elements straight to its insertion sort, so the inlined
	// insertion sort below produces the exact same permutation while
	// skipping the func-value indirection and the interface conversion.
	if len(sorted) <= 12 {
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && durs[sorted[j]] < durs[sorted[j-1]]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
	} else {
		sort.Slice(sorted, func(i, j int) bool { return durs[sorted[i]] < durs[sorted[j]] })
	}
	window := int64(d.durationWindow)
	bestLo, bestHi := 0, 0
	lo := 0
	for hi := range sorted {
		for durs[sorted[hi]]-durs[sorted[lo]] > window {
			lo++
		}
		if hi-lo > bestHi-bestLo {
			bestLo, bestHi = lo, hi
		}
	}
	subset := sorted[bestLo : bestHi+1]
	if len(subset) < 2 {
		return nil
	}
	// Distinctness over a handful of members: linear-scan dedup into
	// reused scratch slices. First-appearance order followed by the same
	// final sort keeps famList identical to the map-based qualifier.
	botnets, fams := d.botnets[:0], d.fams[:0]
	for _, row := range subset {
		v := s.AttackAt(int(row))
		if b := v.BotnetID(); !containsBotnet(botnets, b) {
			botnets = append(botnets, b)
		}
		if f := v.Family(); !containsFamily(fams, f) {
			fams = append(fams, f)
		}
	}
	d.botnets, d.fams = botnets, fams
	if len(botnets) < 2 {
		return nil
	}
	famList := append([]dataset.Family(nil), fams...)
	sort.Slice(famList, func(i, j int) bool { return famList[i] < famList[j] })
	return &Collaboration{Target: target, rows: append([]int32(nil), subset...), Families: famList}
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

// QualifyCollaboration checks the botnet-distinctness and duration-window
// criteria over one start-window group of attacks on a single target,
// trimming the group to the largest duration-compatible subset. It returns
// nil when the group does not qualify. It is exported so the streaming
// analyzer (internal/stream) applies the exact same criteria to its
// windowed candidate groups as the batch detector does.
func QualifyCollaboration(target string, group []*dataset.Attack, durationWindow time.Duration) *Collaboration {
	// Find the largest subset whose durations sit inside the duration
	// window: sort by duration and slide a window.
	sorted := append([]*dataset.Attack(nil), group...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Duration() < sorted[j].Duration() })
	bestLo, bestHi := 0, 0
	lo := 0
	for hi := range sorted {
		for sorted[hi].Duration()-sorted[lo].Duration() > durationWindow {
			lo++
		}
		if hi-lo > bestHi-bestLo {
			bestLo, bestHi = lo, hi
		}
	}
	subset := sorted[bestLo : bestHi+1]
	if len(subset) < 2 {
		return nil
	}
	botnets := make(map[dataset.BotnetID]bool)
	fams := make(map[dataset.Family]bool)
	for _, a := range subset {
		botnets[a.BotnetID] = true
		fams[a.Family] = true
	}
	if len(botnets) < 2 {
		return nil
	}
	famList := make([]dataset.Family, 0, len(fams))
	for f := range fams {
		famList = append(famList, f)
	}
	sort.Slice(famList, func(i, j int) bool { return famList[i] < famList[j] })
	start := subset[0].Start
	for _, a := range subset {
		if a.Start.Before(start) {
			start = a.Start
		}
	}
	return &Collaboration{Target: target, Start: start, Attacks: subset, Families: famList}
}

// CollabStats is Table VI: per-family counts of intra- and inter-family
// collaborations.
type CollabStats struct {
	Intra map[dataset.Family]int
	Inter map[dataset.Family]int
	// PairCounts counts inter-family pairs, keyed "famA+famB" with A < B
	// (the paper: Dirtjumper+Pandora dominates).
	PairCounts map[string]int
	// Total counts, and the mean botnets per collaboration (paper: 2.19).
	TotalIntra     int
	TotalInter     int
	MeanBotnets    float64
	Collaborations []*Collaboration
}

// AnalyzeCollaborations runs detection and aggregates Table VI.
func AnalyzeCollaborations(s *dataset.Store) CollabStats {
	return AnalyzeCollaborationsFrom(DetectCollaborations(s))
}

// AnalyzeCollaborationsFrom aggregates Table VI over an already-detected
// collaboration list, letting callers that need both the table and the
// per-pair drill-downs detect once and share the result.
func AnalyzeCollaborationsFrom(collabs []*Collaboration) CollabStats {
	out := CollabStats{
		Intra:          make(map[dataset.Family]int),
		Inter:          make(map[dataset.Family]int),
		PairCounts:     make(map[string]int),
		Collaborations: collabs,
	}
	totalBotnets := 0
	for _, c := range collabs {
		totalBotnets += c.Botnets()
		if c.Intra() {
			out.TotalIntra++
			out.Intra[c.Families[0]]++
			continue
		}
		out.TotalInter++
		for _, f := range c.Families {
			out.Inter[f]++
		}
		for x := 0; x < len(c.Families); x++ {
			for y := x + 1; y < len(c.Families); y++ {
				out.PairCounts[string(c.Families[x])+"+"+string(c.Families[y])]++
			}
		}
	}
	if len(collabs) > 0 {
		out.MeanBotnets = float64(totalBotnets) / float64(len(collabs))
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

// AnalyzePair summarizes the collaborations between two specific families.
func AnalyzePair(s *dataset.Store, a, b dataset.Family) PairSummary {
	return AnalyzePairFrom(DetectCollaborations(s), a, b)
}

// AnalyzePairFrom is AnalyzePair over an already-detected collaboration
// list.
func AnalyzePairFrom(collabs []*Collaboration, a, b dataset.Family) PairSummary {
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
	for _, c := range collabs {
		if len(c.Families) != 2 || c.Families[0] != minFam(a, b) || c.Families[1] != maxFam(a, b) {
			continue
		}
		out.Count++
		out.Events = append(out.Events, c)
		targets[c.Target] = true
		for _, at := range c.Attacks {
			countries[at.TargetCountry]++
			orgs[at.TargetOrg] = true
			asns[at.TargetASN] = true
			switch at.Family {
			case a:
				sumA += at.Duration().Seconds()
				nA++
			case b:
				sumB += at.Duration().Seconds()
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
