package oracle

import (
	"encoding/json"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"botscope/internal/core"
	"botscope/internal/dataset"
	"botscope/internal/experiments"
	"botscope/internal/serve"
	"botscope/internal/stream"
	"botscope/internal/synth"
)

// gapWant is one interval series' expected answer; a nil *gapWant means
// the series is empty (the family launched at most one attack).
type gapWant struct {
	n                       int
	simultaneous, exactZero float64
	median                  float64
}

type durWant struct {
	n                 int
	under4h, under60s float64
	median            float64
}

// micro is a hand-built workload under testdata/micro with its answers
// worked out by hand from the records.
type micro struct {
	file     string
	all      *gapWant
	families map[dataset.Family]*gapWant
	dur      durWant
	days     []day
	peak     day
	average  float64
	load     load
}

// at parses an RFC 3339 instant of the micro workloads.
func at(s string) time.Time {
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		panic(err)
	}
	return t
}

var micros = []micro{
	{
		// Records out of file order; two attacks tie at midnight. Day one
		// closes one second before midnight with a pandora and a
		// dirtjumper attack, day two opens with one of each: both days
		// tie 1-1, and the tie goes to the alphabetically first family,
		// not the first one seen (pandora). The two days tie on count too,
		// and the earlier is the peak.
		file: "tie_day_boundary.jsonl",
		// gaps 50,399 s, 1 s, 0 s, 216,000 s
		all: &gapWant{n: 4, simultaneous: 0.5, exactZero: 0.25, median: 25200},
		families: map[dataset.Family]*gapWant{
			dataset.Pandora:    {n: 1, simultaneous: 0, exactZero: 0, median: 50400},
			dataset.Dirtjumper: {n: 1, simultaneous: 1, exactZero: 0, median: 1},
			dataset.Optima:     nil,
		},
		// 3,600, 30, 18,000, 600, 7,200 s
		dur: durWant{n: 5, under4h: 0.8, under60s: 0.2, median: 3600},
		days: []day{
			{"2012-08-30", 2, dataset.Dirtjumper},
			{"2012-08-31", 2, dataset.Dirtjumper},
			{"2012-09-02", 1, dataset.Optima},
		},
		peak:    day{"2012-08-30", 2, dataset.Dirtjumper},
		average: 5.0 / 4,
		// 1, 0, 1, 3, 2, 1, 0, 1, 0 in progress at the nine instants: the
		// two midnight starts join the attack launched a second before.
		// 3,600 + 1 + 3 x 29 + 2 x 571 + 17,400 + 7,200 attack-seconds
		// over the 76 h from 10:00 on the 30th to 14:00 on the 2nd.
		load: load{3, at("2012-08-31T00:00:00Z"), 29430.0 / 273600},
	},
	{
		// A zero-duration attack and one of exactly 60 s: both are short.
		file: "zero_duration.jsonl",
		// gaps 30 s, 3,600 s, 39,600 s
		all: &gapWant{n: 3, simultaneous: 1.0 / 3, exactZero: 0, median: 3600},
		families: map[dataset.Family]*gapWant{
			dataset.Dirtjumper: {n: 1, simultaneous: 1, exactZero: 0, median: 30},
			dataset.Pandora:    {n: 1, simultaneous: 0, exactZero: 0, median: 39600},
		},
		// 0, 60, 3,600, 21,600 s
		dur:     durWant{n: 4, under4h: 0.75, under60s: 0.5, median: 1830},
		days:    []day{{"2012-09-10", 4, dataset.Dirtjumper}},
		peak:    day{"2012-09-10", 4, dataset.Dirtjumper},
		average: 4,
		// The zero-duration attack opens the window but is never in
		// progress; no two attacks overlap, so the first start of the
		// 60 s one is the peak. 60 + 3,600 + 21,600 attack-seconds over
		// 18 h 30 s.
		load: load{1, at("2012-09-10T08:00:30Z"), 25260.0 / 64830},
	},
	{
		// yzf launches once: it has no intervals, and its route is a 404.
		file: "one_attack_family.jsonl",
		// gaps 300 s, 10 s, 86,400 s
		all: &gapWant{n: 3, simultaneous: 1.0 / 3, exactZero: 0, median: 300},
		families: map[dataset.Family]*gapWant{
			dataset.Nitol: {n: 2, simultaneous: 0.5, exactZero: 0, median: 43205},
			dataset.YZF:   nil,
		},
		// 300, 120, 20, 3,600 s
		dur: durWant{n: 4, under4h: 1, under60s: 0.25, median: 210},
		days: []day{
			{"2012-10-01", 3, dataset.Nitol},
			{"2012-10-02", 1, dataset.Nitol},
		},
		peak:    day{"2012-10-01", 3, dataset.Nitol},
		average: 2,
		// A nitol attack starts as yzf's ends: one in progress, not two.
		// The 20 s one inside it makes the peak. 300 + 10 + 2 x 20 + 90 +
		// 3,600 attack-seconds over 25 h 5 min 10 s.
		load: load{2, at("2012-10-01T00:05:10Z"), 4040.0 / 90310},
	},
}

// agree reports whether two answers agree; medians may differ in the last
// bits between (a+b)/2 and a+(b-a)/2.
func agree(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func loadMicro(t *testing.T, file string) ([]*dataset.Attack, *dataset.Store) {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "micro", file))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := dataset.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	store, err := dataset.NewStore(recs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return recs, store
}

// oracleGaps is the oracle's answer in gapWant's shape.
func oracleGaps(recs []*dataset.Attack, f dataset.Family) *gapWant {
	gaps := intervals(recs, f)
	if len(gaps) == 0 {
		return nil
	}
	return &gapWant{n: len(gaps), simultaneous: shareSimultaneous(gaps), exactZero: shareExactZero(gaps), median: median(gaps)}
}

func checkGaps(t *testing.T, what string, got, want *gapWant) {
	t.Helper()
	switch {
	case got == nil || want == nil:
		if got != want {
			t.Errorf("%s: got %+v, want %+v", what, got, want)
		}
	case got.n != want.n || !agree(got.simultaneous, want.simultaneous) ||
		!agree(got.exactZero, want.exactZero) || !agree(got.median, want.median):
		t.Errorf("%s: got %+v, want %+v", what, *got, *want)
	}
}

func kernelGaps(st core.IntervalStats, err error) *gapWant {
	if err != nil {
		return nil
	}
	return &gapWant{n: st.N, simultaneous: st.SimultaneousFrac, exactZero: st.ExactZeroFrac, median: st.Median}
}

func checkDurs(t *testing.T, what string, got, want durWant) {
	t.Helper()
	if got.n != want.n || !agree(got.under4h, want.under4h) || !agree(got.under60s, want.under60s) || !agree(got.median, want.median) {
		t.Errorf("%s: got %+v, want %+v", what, got, want)
	}
}

func kernelDurs(st core.DurationStats) durWant {
	return durWant{n: st.N, under4h: st.FracUnder4h, under60s: st.FracUnder60s, median: st.Median}
}

// checkDaily holds a Fig 2 answer to the expected days (dates and counts)
// and peak; the kernel names the dominant family of the peak day only.
func checkDaily(t *testing.T, what string, st core.DailyStats, want micro) {
	t.Helper()
	if len(st.Days) != len(want.days) {
		t.Fatalf("%s: %d days, want %d", what, len(st.Days), len(want.days))
	}
	for i, d := range st.Days {
		if got := d.Day.Format("2006-01-02"); got != want.days[i].date || d.Count != want.days[i].count {
			t.Errorf("%s: day %d is %s with %d attacks, want %+v", what, i, got, d.Count, want.days[i])
		}
	}
	if got := (day{st.MaxDay.Format("2006-01-02"), st.Max, st.MaxDominantFamily}); got != want.peak {
		t.Errorf("%s: peak %+v, want %+v", what, got, want.peak)
	}
	if !agree(st.Average, want.average) {
		t.Errorf("%s: average %v, want %v", what, st.Average, want.average)
	}
}

// streamSnapshot feeds the records to a fresh live analyzer in launch
// order and returns its snapshot.
func streamSnapshot(t *testing.T, recs []*dataset.Attack) stream.Snapshot {
	t.Helper()
	a := stream.New()
	for _, r := range chronological(recs) {
		if err := a.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	return a.Snapshot()
}

func checkLoad(t *testing.T, what string, got, want load) {
	t.Helper()
	if got.peak != want.peak || !got.peakAt.Equal(want.peakAt) || !agree(got.mean, want.mean) {
		t.Errorf("%s: peak %d at %v, mean %v; want %d at %v, %v", what, got.peak, got.peakAt, got.mean, want.peak, want.peakAt, want.mean)
	}
}

func kernelLoad(st core.LoadStats) load { return load{st.Peak, st.PeakTime, st.TimeWeightedMean} }

// checkWholeFeed holds §II-B's load, from core.ConcurrentLoad and from
// the live analyzer, to the oracle's, and the live analyzer's interval and
// duration counts and shares to the oracle's gaps and durations.
func checkWholeFeed(t *testing.T, recs []*dataset.Attack, store *dataset.Store) {
	t.Helper()
	want := concurrentLoad(recs)
	_, st, err := core.ConcurrentLoad(store)
	if err != nil {
		t.Fatal(err)
	}
	checkLoad(t, "core.ConcurrentLoad", kernelLoad(st), want)
	snap := streamSnapshot(t, recs)
	checkLoad(t, "stream.Analyzer load", kernelLoad(snap.Load), want)

	gaps, iv := intervals(recs, ""), snap.Intervals
	if iv.N != len(gaps) || len(gaps) > 0 &&
		(!agree(iv.SimultaneousFrac, shareSimultaneous(gaps)) || !agree(iv.ExactZeroFrac, shareExactZero(gaps))) {
		t.Errorf("stream.Analyzer intervals: %d gaps, simultaneous %v, exact zero %v; oracle %d gaps %v",
			iv.N, iv.SimultaneousFrac, iv.ExactZeroFrac, len(gaps), gaps)
	}
	durs, du := durations(recs), snap.Durations
	if du.N != len(durs) || !agree(du.FracUnder4h, shareAtMost(durs, 4*3600)) || !agree(du.FracUnder60s, shareAtMost(durs, 60)) {
		t.Errorf("stream.Analyzer durations: %d, under 4 h %v, under 60 s %v; oracle %d, %v, %v", du.N, du.FracUnder4h,
			du.FracUnder60s, len(durs), shareAtMost(durs, 4*3600), shareAtMost(durs, 60))
	}
}

// TestOracleWholeFeed holds the whole-feed statistics — §II-B's load from
// the batch kernel and the live analyzer, and the live analyzer's
// interval and duration counts — to the oracle on every micro workload
// and a small generated store.
func TestOracleWholeFeed(t *testing.T) {
	files, err := os.ReadDir(filepath.Join("testdata", "micro"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		t.Run(f.Name(), func(t *testing.T) {
			recs, store := loadMicro(t, f.Name())
			checkWholeFeed(t, recs, store)
		})
	}
	t.Run("generated", func(t *testing.T) {
		store, err := synth.GenerateStore(synth.Config{Seed: 3, Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		checkWholeFeed(t, store.Attacks(), store)
	})
}

// TestOracleMicro holds the oracle to the hand-worked answers first, then
// the Workload's held products, the live analyzer's Fig 2 and botserve's
// bodies, on each micro workload.
func TestOracleMicro(t *testing.T) {
	for _, m := range micros {
		t.Run(m.file, func(t *testing.T) {
			recs, store := loadMicro(t, m.file)

			checkGaps(t, "oracle intervals", oracleGaps(recs, ""), m.all)
			for f, want := range m.families {
				checkGaps(t, "oracle "+string(f)+" intervals", oracleGaps(recs, f), want)
			}
			durs := durations(recs)
			checkDurs(t, "oracle durations", durWant{len(durs), shareAtMost(durs, 4*3600), shareAtMost(durs, 60), median(durs)}, m.dur)
			ds := days(recs)
			if len(ds) != len(m.days) {
				t.Fatalf("oracle days: %+v, want %+v", ds, m.days)
			}
			for i := range ds {
				if ds[i] != m.days[i] {
					t.Errorf("oracle day %d: %+v, want %+v", i, ds[i], m.days[i])
				}
			}
			if got := peak(ds); got != m.peak {
				t.Errorf("oracle peak: %+v, want %+v", got, m.peak)
			}
			if got := average(recs); !agree(got, m.average) {
				t.Errorf("oracle average: %v, want %v", got, m.average)
			}
			checkLoad(t, "oracle load", concurrentLoad(recs), m.load)

			w := experiments.FromStore(store, 1)
			_, st, err := w.AllIntervals()
			checkGaps(t, "Workload.AllIntervals", kernelGaps(st, err), m.all)
			for f, want := range m.families {
				_, st, err := w.FamilyIntervals(f)
				checkGaps(t, "Workload.FamilyIntervals("+string(f)+")", kernelGaps(st, err), want)
			}
			_, dst, err := w.Durations()
			if err != nil {
				t.Fatal(err)
			}
			checkDurs(t, "Workload.Durations", kernelDurs(dst), m.dur)
			daily, err := w.Daily()
			if err != nil {
				t.Fatal(err)
			}
			checkDaily(t, "Workload.Daily", daily, m)
			checkDaily(t, "stream.Analyzer daily", streamSnapshot(t, recs).Daily, m)

			srv := serve.New(store, 1)
			var ist core.IntervalStats
			getJSON(t, srv, "/api/intervals", http.StatusOK, &ist)
			checkGaps(t, "GET /api/intervals", kernelGaps(ist, nil), m.all)
			for f, want := range m.families {
				path := "/api/intervals?family=" + string(f)
				if want == nil {
					getJSON(t, srv, path, http.StatusNotFound, nil)
					continue
				}
				var fst core.IntervalStats
				getJSON(t, srv, path, http.StatusOK, &fst)
				checkGaps(t, "GET "+path, kernelGaps(fst, nil), want)
			}
			var body core.DurationStats
			getJSON(t, srv, "/api/durations", http.StatusOK, &body)
			checkDurs(t, "GET /api/durations", kernelDurs(body), m.dur)
			var dbody struct {
				Average float64 `json:"average"`
				Max     int     `json:"max"`
				MaxDay  string  `json:"max_day"`
				Days    []struct {
					Day   string `json:"day"`
					Count int    `json:"count"`
				} `json:"days"`
			}
			getJSON(t, srv, "/api/daily", http.StatusOK, &dbody)
			if dbody.MaxDay != m.peak.date || dbody.Max != m.peak.count || !agree(dbody.Average, m.average) || len(dbody.Days) != len(m.days) {
				t.Fatalf("GET /api/daily: %+v, want peak %+v over %d days, average %v", dbody, m.peak, len(m.days), m.average)
			}
			for i, d := range dbody.Days {
				if d.Day != m.days[i].date || d.Count != m.days[i].count {
					t.Errorf("GET /api/daily: day %d is %+v, want %+v", i, d, m.days[i])
				}
			}
		})
	}
}

// TestOracleAgreesOnGeneratedStore holds the Workload's products to the
// oracle on a small generated workload: every family's intervals, the
// durations and every day, the last from the live analyzer too, and the
// §V collaborations and chains.
func TestOracleAgreesOnGeneratedStore(t *testing.T) {
	store, err := synth.GenerateStore(synth.Config{Seed: 3, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	recs := store.Attacks()
	w := experiments.FromStore(store, 0.01)

	_, st, err := w.AllIntervals()
	checkGaps(t, "all intervals", kernelGaps(st, err), oracleGaps(recs, ""))
	for _, f := range append(store.Families().Clone(), "no-such-family") {
		_, st, err := w.FamilyIntervals(f)
		checkGaps(t, string(f)+" intervals", kernelGaps(st, err), oracleGaps(recs, f))
	}
	_, dst, err := w.Durations()
	if err != nil {
		t.Fatal(err)
	}
	durs := durations(recs)
	checkDurs(t, "durations", kernelDurs(dst), durWant{len(durs), shareAtMost(durs, 4*3600), shareAtMost(durs, 60), median(durs)})
	daily, err := w.Daily()
	if err != nil {
		t.Fatal(err)
	}
	ds := days(recs)
	want := micro{days: ds, peak: peak(ds), average: average(recs)}
	checkDaily(t, "daily", daily, want)
	checkDaily(t, "stream.Analyzer daily", streamSnapshot(t, recs).Daily, want)
	checkSectionV(t, recs, store)
}

// sectionV is a §V micro workload under testdata/micro with its
// collaborations and chains worked out by hand from the records.
var sectionV = []struct {
	file            string
	collabs, chains []event
}{
	{
		// On .10 three botnets launch within 40 s, but only the first two
		// attacks last within 30 min of each other (60 and 70 min; the
		// third runs 3 h): the collaboration is theirs, across two
		// families. Optima launches 60 s after the window's first attack:
		// outside it, and alone in the next. On .11 two dirtjumper botnets
		// collaborate; on .12 one pandora botnet attacks twice, which is
		// no collaboration. On .13 two optima attacks of 3 h and two
		// blackenergy ones of 1 h fit the band equally; the shorter-lasting
		// pair is the collaboration. No strike starts within 60 s of
		// another's end.
		file: "three_botnet_band.jsonl",
		collabs: []event{
			{target: "192.0.2.10", ids: []dataset.DDoSID{1, 2}, families: []dataset.Family{dataset.Dirtjumper, dataset.Pandora}, botnets: 2},
			{target: "192.0.2.11", ids: []dataset.DDoSID{5, 6}, families: []dataset.Family{dataset.Dirtjumper}, botnets: 2},
			{target: "192.0.2.13", ids: []dataset.DDoSID{11, 12}, families: []dataset.Family{dataset.Blackenergy}, botnets: 2},
		},
	},
	{
		// ddoser's third strike on .20 starts 90 s after the second ends
		// and breaks the run in two; the fifth starts exactly 60 s after
		// the fourth ends and the sixth 30 s before the fifth ends, and
		// both still chain. Pandora chains twice on .21. One botnet per
		// target: no collaboration.
		file: "late_start_chain.jsonl",
		chains: []event{
			{target: "192.0.2.20", ids: []dataset.DDoSID{1, 2}, gaps: []float64{30}},
			{target: "192.0.2.20", ids: []dataset.DDoSID{3, 4, 5, 6}, gaps: []float64{10, 60, -30}},
			{target: "192.0.2.21", ids: []dataset.DDoSID{7, 8}, gaps: []float64{20}},
		},
	},
}

// TestOracleSectionVMicro holds the §V oracle to the hand-worked answers,
// then the kernels to the oracle, on each §V micro workload.
func TestOracleSectionVMicro(t *testing.T) {
	for _, m := range sectionV {
		t.Run(m.file, func(t *testing.T) {
			recs, store := loadMicro(t, m.file)
			if got := collaborations(recs); !slices.Equal(keys(got), keys(m.collabs)) {
				t.Errorf("oracle collaborations: %+v, want %+v", got, m.collabs)
			}
			if got := chains(recs); !slices.Equal(keys(got), keys(m.chains)) {
				t.Errorf("oracle chains: %+v, want %+v", got, m.chains)
			}
			checkSectionV(t, recs, store)
		})
	}
}

func idsOf(store *dataset.Store, rows []int32) (ids []dataset.DDoSID) {
	for _, row := range rows {
		ids = append(ids, store.AttackAt(int(row)).ID())
	}
	return ids
}

// checkSectionV holds the kernels' §V answers to the oracle's: the
// detected collaborations, Table VI over the Workload's held list, and
// the chains with Fig 17's gap shares and the longest chain's length.
func checkSectionV(t *testing.T, recs []*dataset.Attack, store *dataset.Store) {
	t.Helper()
	want, wantChains := collaborations(recs), chains(recs)
	var got, gotChains []event
	for _, c := range core.DetectCollaborations(store) {
		e := event{target: c.Target, ids: idsOf(store, c.Rows), families: c.Families, botnets: c.Botnets}
		slices.Sort(e.ids)
		got = append(got, e)
	}
	cs := core.AnalyzeChains(store)
	for _, c := range cs.Chains {
		gotChains = append(gotChains, event{target: c.Target, ids: idsOf(store, c.Rows), gaps: c.Gaps})
	}
	if !slices.Equal(keys(got), keys(want)) || !slices.Equal(keys(gotChains), keys(wantChains)) {
		t.Errorf("kernels: collaborations %+v, chains %+v; oracle: %+v, %+v", got, gotChains, want, wantChains)
	}

	st := core.AnalyzeCollaborationsFrom(experiments.FromStore(store, 1).Collabs())
	if table := tableVI(want); !reflect.DeepEqual(st.CollabCounts, table) {
		t.Errorf("Table VI: %+v, oracle %+v", st.CollabCounts, table)
	}

	var gaps []float64
	longest := 0
	for _, c := range wantChains {
		gaps, longest = append(gaps, c.gaps...), max(longest, len(c.ids))
	}
	if len(gaps) > 0 && (!agree(cs.FracWithin10s, shareAtMost(gaps, 10)) || !agree(cs.FracWithin30s, shareAtMost(gaps, 30)) || cs.Longest.Length() != longest) {
		t.Errorf("chain stats: within 10 s %v, 30 s %v, longest %d; oracle %v, %v, %d",
			cs.FracWithin10s, cs.FracWithin30s, cs.Longest.Length(), shareAtMost(gaps, 10), shareAtMost(gaps, 30), longest)
	}
}

func getJSON(t *testing.T, srv http.Handler, path string, status int, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != status {
		t.Fatalf("GET %s = %d, want %d: %s", path, rec.Code, status, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: %v: %s", path, err, rec.Body.String())
		}
	}
}

// dispersionCase is one attack of the §IV-A micro store: its sources, in
// order, and its dispersion worked out by hand (NaN: no closed form, the
// kernels are held to the oracle only; dropped: no source resolves).
type dispersionCase struct {
	family  dataset.Family
	sources []string
	want    float64
	dropped bool
}

// dispersionBotlist locates the micro store's bots; the 10.9.x addresses
// are missing from it.
var dispersionBotlist = map[string]place{
	"10.0.0.1": {30, 45}, "10.0.0.2": {-30, -135}, "10.0.0.3": {60, 45}, "10.0.0.4": {-60, -135},
	"10.0.1.1": {0, 179}, "10.0.1.2": {0, -179}, "10.0.1.3": {10, -179}, "10.0.1.4": {-5, 178}, "10.0.1.5": {20, -177.5},
	"10.0.2.1": {0, 0}, "10.0.2.2": {0, 0}, "10.0.2.3": {60, 0},
	"10.0.3.1": {48.85, 2.35},
	"10.0.4.1": {0, 10}, "10.0.4.2": {0, 30},
}

// πR: half the circumference, the distance between antipodes.
var halfCircumference = math.Pi * earthRadiusKm

var dispersionCases = []dispersionCase{
	// An antipodal pair: the unit vectors cancel, the centre is the first
	// bot, and the second lies πR away, 180° east. (Centred on (0, 0)
	// instead, the two would read 52° east and 128° west: 8,397 km.)
	{family: dataset.Dirtjumper, sources: []string{"10.0.0.1", "10.0.0.2"}, want: halfCircumference},
	// Two antipodal pairs, the first source unresolved: the centre is the
	// first resolved bot, (30, 45). Its antipode is πR east; (60, 45) is
	// due north, +πR/6 by its latitude; that bot's antipode is 5πR/6
	// east: 2πR. Signing the due-north bot south would give 5πR/3.
	{family: dataset.Dirtjumper, sources: []string{"10.9.0.1", "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4"}, want: 2 * halfCircumference},
	// Straddling ±180° on the equator: the centre is at 180°, one bot a
	// degree west and one a degree east, the short way round. The long
	// way round both would read west: 222.4 km. The second formation is
	// centred west of -179°, so its 178° bot lies east of 180° the long
	// way and west the short way.
	{family: dataset.Dirtjumper, sources: []string{"10.0.1.1", "10.0.1.2"}, want: 0},
	{family: dataset.Dirtjumper, sources: []string{"10.0.1.3", "10.0.1.4", "10.0.1.5"}, want: math.NaN()},
	// Due north and south on the prime meridian: two bots at (0, 0) and
	// one at (60, 0) centre at φ = atan2(√3/2, 5/2) = 19.107°; the sum is
	// R(60° − 3φ) in radians.
	{family: dataset.Pandora, sources: []string{"10.0.2.1", "10.0.2.2", "10.0.2.3"}, want: 298.0228574242566},
	// One bot is its own centre.
	{family: dataset.Pandora, sources: []string{"10.0.3.1"}, want: 0},
	// The unresolved source is left out: the centre is (0, 20), 10° from
	// each resolved bot, one west and one east.
	{family: dataset.Pandora, sources: []string{"10.0.4.1", "10.9.0.2", "10.0.4.2"}, want: 0},
	// No source resolves: the attack has no value.
	{family: dataset.Pandora, sources: []string{"10.9.0.3", "10.9.0.4"}, dropped: true},
}

// dispersionMicro builds the §IV-A micro store: one attack a case, an
// hour apart, and the Botlist.
func dispersionMicro(t *testing.T) ([]*dataset.Attack, []*dataset.Bot, *dataset.Store) {
	t.Helper()
	var recs []*dataset.Attack
	for i, c := range dispersionCases {
		start := at("2012-09-01T00:00:00Z").Add(time.Duration(i) * time.Hour)
		a := &dataset.Attack{ID: dataset.DDoSID(i + 1), BotnetID: dataset.BotnetID(i + 1), Family: c.family,
			Category: dataset.CategoryHTTP, TargetIP: netip.MustParseAddr("192.0.2.1"), Start: start, End: start.Add(time.Minute)}
		for _, ip := range c.sources {
			a.BotIPs = append(a.BotIPs, netip.MustParseAddr(ip))
		}
		recs = append(recs, a)
	}
	var bots []*dataset.Bot
	for _, ip := range slices.Sorted(maps.Keys(dispersionBotlist)) {
		p := dispersionBotlist[ip]
		bots = append(bots, &dataset.Bot{IP: netip.MustParseAddr(ip), ASN: 64500, CountryCode: "US", City: "Seattle", Org: "Example Net", Lat: p.lat, Lon: p.lon})
	}
	store, err := dataset.NewStore(recs, nil, bots)
	if err != nil {
		t.Fatal(err)
	}
	return recs, bots, store
}

// checkDispersion holds every family's held dispersion series — attack
// ids and values — to the oracle's.
func checkDispersion(t *testing.T, recs []*dataset.Attack, bots []*dataset.Bot, store *dataset.Store) {
	t.Helper()
	disp := experiments.FromStore(store, 1).Disp()
	for _, f := range append(store.Families().Clone(), "no-such-family") {
		want, got := dispersion(recs, bots, f), disp.Series(f)
		if got.Len() != len(want) {
			t.Fatalf("%s: %d dispersion points, oracle %d", f, got.Len(), len(want))
		}
		for i, p := range got.All() {
			if p.AttackID != want[i].id || !agree(p.Value, want[i].value) {
				t.Errorf("%s point %d: attack %d, %v km; oracle attack %d, %v km", f, i, p.AttackID, p.Value, want[i].id, want[i].value)
			}
		}
	}
}

// TestOracleDispersion holds the §IV-A oracle to the hand-worked
// dispersions of the micro store, then the held series to the oracle on
// it and on a small generated store.
func TestOracleDispersion(t *testing.T) {
	t.Run("micro", func(t *testing.T) {
		recs, bots, store := dispersionMicro(t)
		values := make(map[dataset.DDoSID]float64)
		for _, f := range []dataset.Family{dataset.Dirtjumper, dataset.Pandora} {
			for _, p := range dispersion(recs, bots, f) {
				values[p.id] = p.value
			}
		}
		for i, c := range dispersionCases {
			got, ok := values[dataset.DDoSID(i+1)]
			switch {
			case ok == c.dropped:
				t.Errorf("case %d (%v): oracle has a value %v, want dropped %v", i+1, c.sources, ok, c.dropped)
			case ok && !math.IsNaN(c.want) && !agree(got, c.want):
				t.Errorf("case %d (%v): oracle dispersion %v km, hand-worked %v", i+1, c.sources, got, c.want)
			}
		}
		checkDispersion(t, recs, bots, store)
	})
	t.Run("generated", func(t *testing.T) {
		out, err := synth.Generate(synth.Config{Seed: 3, Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		store, err := out.Store()
		if err != nil {
			t.Fatal(err)
		}
		checkDispersion(t, out.Attacks, out.Bots, store)
	})
}
