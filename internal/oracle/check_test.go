package oracle

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

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

// streamDaily feeds the records to a fresh live analyzer in launch order
// and returns its Fig 2 answer.
func streamDaily(t *testing.T, recs []*dataset.Attack) core.DailyStats {
	t.Helper()
	a := stream.New()
	for _, r := range chronological(recs) {
		if err := a.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	return a.Snapshot().Daily
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
			checkDaily(t, "stream.Analyzer daily", streamDaily(t, recs), m)

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
				if want.n < 2 {
					continue // one gap has no standard deviation, and JSON no NaN
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
	checkDaily(t, "stream.Analyzer daily", streamDaily(t, recs), want)
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

func idsOf(attacks []*dataset.Attack) (ids []dataset.DDoSID) {
	for _, a := range attacks {
		ids = append(ids, a.ID)
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
		e := event{target: c.Target, ids: idsOf(c.Attacks), families: c.Families, botnets: c.Botnets()}
		slices.Sort(e.ids)
		got = append(got, e)
	}
	cs := core.AnalyzeChains(store)
	for _, c := range cs.Chains {
		gotChains = append(gotChains, event{target: c.Target, ids: idsOf(c.Attacks), gaps: c.Gaps})
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
