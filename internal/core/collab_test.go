package core

import (
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"botscope/internal/dataset"
	"botscope/internal/memo"
)

func TestDetectCollaborationsIntra(t *testing.T) {
	// Two dirtjumper botnets hit the same target simultaneously with
	// matched durations: one intra-family collaboration.
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour),
		mkAttack(2, dataset.Dirtjumper, 2, "5.5.5.1", t0.Add(10*time.Second), time.Hour+10*time.Minute),
	}
	s := mustStore(t, attacks)
	collabs := DetectCollaborations(s)
	if len(collabs) != 1 {
		t.Fatalf("collaborations = %d, want 1", len(collabs))
	}
	c := collabs[0]
	if !c.Intra() || c.Families[0] != dataset.Dirtjumper {
		t.Errorf("collab = %+v, want intra dirtjumper", c)
	}
	if c.Botnets != 2 {
		t.Errorf("botnets = %d, want 2", c.Botnets)
	}
}

func TestDetectCollaborationsRejectsSameBotnet(t *testing.T) {
	// Same botnet ID twice: not a collaboration.
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour),
		mkAttack(2, dataset.Dirtjumper, 1, "5.5.5.1", t0.Add(5*time.Second), time.Hour),
	}
	s := mustStore(t, attacks)
	if got := DetectCollaborations(s); len(got) != 0 {
		t.Errorf("collaborations = %d, want 0 (same botnet)", len(got))
	}
}

func TestDetectCollaborationsRejectsDurationMismatch(t *testing.T) {
	// Same start, same target, but durations differ by > 30 min.
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour),
		mkAttack(2, dataset.Pandora, 2, "5.5.5.1", t0.Add(5*time.Second), 3*time.Hour),
	}
	s := mustStore(t, attacks)
	if got := DetectCollaborations(s); len(got) != 0 {
		t.Errorf("collaborations = %d, want 0 (duration mismatch)", len(got))
	}
}

func TestDetectCollaborationsRejectsLateStart(t *testing.T) {
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour),
		mkAttack(2, dataset.Pandora, 2, "5.5.5.1", t0.Add(5*time.Minute), time.Hour),
	}
	s := mustStore(t, attacks)
	if got := DetectCollaborations(s); len(got) != 0 {
		t.Errorf("collaborations = %d, want 0 (starts 5 min apart)", len(got))
	}
}

func TestDetectCollaborationsInterFamily(t *testing.T) {
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, 2*time.Hour),
		mkAttack(2, dataset.Pandora, 2, "5.5.5.1", t0, 2*time.Hour+20*time.Minute),
	}
	s := mustStore(t, attacks)
	collabs := DetectCollaborations(s)
	if len(collabs) != 1 {
		t.Fatalf("collaborations = %d, want 1", len(collabs))
	}
	if collabs[0].Intra() {
		t.Error("inter-family collaboration classified as intra")
	}
}

func TestQualifyCollaborationPicksCompatibleSubset(t *testing.T) {
	// Three attacks: two with matched durations, one far off. The
	// detector keeps the compatible pair.
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour),
		mkAttack(2, dataset.Dirtjumper, 2, "5.5.5.1", t0.Add(5*time.Second), time.Hour+5*time.Minute),
		mkAttack(3, dataset.Dirtjumper, 3, "5.5.5.1", t0.Add(10*time.Second), 10*time.Hour),
	}
	s := mustStore(t, attacks)
	collabs := DetectCollaborations(s)
	if len(collabs) != 1 {
		t.Fatalf("collaborations = %d, want 1", len(collabs))
	}
	if got := len(collabs[0].Rows); got != 2 {
		t.Errorf("collab size = %d, want 2 (outlier dropped)", got)
	}
}

func TestAnalyzeCollaborations(t *testing.T) {
	attacks := []*dataset.Attack{
		// Intra dirtjumper.
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, time.Hour),
		mkAttack(2, dataset.Dirtjumper, 2, "5.5.5.1", t0, time.Hour),
		// Inter dirtjumper+pandora.
		mkAttack(3, dataset.Dirtjumper, 1, "5.5.5.2", t0.Add(time.Hour), time.Hour),
		mkAttack(4, dataset.Pandora, 3, "5.5.5.2", t0.Add(time.Hour), time.Hour),
	}
	s := mustStore(t, attacks)
	st := AnalyzeCollaborationsFrom(memo.ViewOf(DetectCollaborations(s)))
	if st.TotalIntra != 1 || st.TotalInter != 1 {
		t.Fatalf("intra/inter = %d/%d, want 1/1", st.TotalIntra, st.TotalInter)
	}
	if st.Intra[dataset.Dirtjumper] != 1 {
		t.Errorf("Intra = %v", st.Intra)
	}
	if st.Inter[dataset.Dirtjumper] != 1 || st.Inter[dataset.Pandora] != 1 {
		t.Errorf("Inter = %v", st.Inter)
	}
	if st.PairCounts["dirtjumper+pandora"] != 1 {
		t.Errorf("PairCounts = %v", st.PairCounts)
	}
	if st.MeanBotnets != 2 {
		t.Errorf("MeanBotnets = %v, want 2", st.MeanBotnets)
	}
}

func TestAnalyzePair(t *testing.T) {
	attacks := []*dataset.Attack{
		mkAttack(1, dataset.Dirtjumper, 1, "5.5.5.1", t0, 2*time.Hour),
		mkAttack(2, dataset.Pandora, 2, "5.5.5.1", t0, 2*time.Hour+15*time.Minute),
		mkAttack(3, dataset.Dirtjumper, 1, "5.5.5.2", t0.AddDate(0, 0, 7), time.Hour),
		mkAttack(4, dataset.Pandora, 2, "5.5.5.2", t0.AddDate(0, 0, 7), time.Hour+10*time.Minute),
	}
	attacks[2].TargetCountry = "RU"
	attacks[3].TargetCountry = "RU"
	s := mustStore(t, attacks)
	sum := AnalyzePairFrom(s, memo.ViewOf(DetectCollaborations(s)), dataset.Dirtjumper, dataset.Pandora)
	if sum.Count != 2 {
		t.Fatalf("pair collaborations = %d, want 2", sum.Count)
	}
	if sum.UniqueTargets != 2 || sum.Countries != 2 {
		t.Errorf("targets/countries = %d/%d, want 2/2", sum.UniqueTargets, sum.Countries)
	}
	if sum.Span != 7*24*time.Hour {
		t.Errorf("span = %v, want 7 days", sum.Span)
	}
	if sum.MeanDurationA <= 0 || sum.MeanDurationB <= sum.MeanDurationA {
		t.Errorf("durations A=%v B=%v, want pandora longer", sum.MeanDurationA, sum.MeanDurationB)
	}
}

func TestCollabOnSynthWorkload(t *testing.T) {
	s := synthWorkload(t)
	st := AnalyzeCollaborationsFrom(memo.ViewOf(DetectCollaborations(s)))
	if st.TotalIntra == 0 {
		t.Fatal("no intra-family collaborations detected")
	}
	if st.TotalInter == 0 {
		t.Fatal("no inter-family collaborations detected")
	}
	// Dirtjumper leads intra-family collaboration (Table VI: 756).
	best, bestN := dataset.Family(""), 0
	for f, n := range st.Intra {
		if n > bestN {
			best, bestN = f, n
		}
	}
	if best != dataset.Dirtjumper {
		t.Errorf("top intra-family collaborator = %s (%d), want dirtjumper; table: %v", best, bestN, st.Intra)
	}
	// Dirtjumper+Pandora dominates inter-family pairs.
	bestPair, bestPairN := "", 0
	for p, n := range st.PairCounts {
		if n > bestPairN {
			bestPair, bestPairN = p, n
		}
	}
	if bestPair != "dirtjumper+pandora" {
		t.Errorf("top pair = %s (%d), want dirtjumper+pandora; pairs: %v", bestPair, bestPairN, st.PairCounts)
	}
	// Mean botnets per collaboration ~2.19 (Fig 15).
	if st.MeanBotnets < 2 || st.MeanBotnets > 2.6 {
		t.Errorf("mean botnets per collaboration = %v, want about 2.19", st.MeanBotnets)
	}

	pair := AnalyzePairFrom(s, st.Collaborations, dataset.Dirtjumper, dataset.Pandora)
	if pair.Count == 0 {
		t.Fatal("no dirtjumper-pandora pair events")
	}
	if pair.UniqueTargets == 0 || pair.Organizations == 0 || pair.ASNs == 0 {
		t.Errorf("pair summary incomplete: %+v", pair)
	}
}

// TestDetectCollaborationsParallelMatchesSequential pins the sharding
// invariant: detection over disjoint target shards merged in canonical
// order must equal the sequential scan exactly, for any GOMAXPROCS.
func TestDetectCollaborationsParallelMatchesSequential(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	s := synthWorkload(t)
	seq := DetectCollaborations(s)
	if len(seq) == 0 {
		t.Fatal("sequential detection found no collaborations; comparison is vacuous")
	}
	for _, procs := range []int{2, 3, 7, 16} {
		runtime.GOMAXPROCS(procs)
		par := DetectCollaborations(s)
		if len(par) != len(seq) {
			t.Fatalf("GOMAXPROCS=%d: %d collaborations, sequential found %d", procs, len(par), len(seq))
		}
		for i := range seq {
			a, b := seq[i], par[i]
			if a.Target != b.Target || !a.Start.Equal(b.Start) || !slices.Equal(a.Rows, b.Rows) {
				t.Fatalf("GOMAXPROCS=%d: collaboration %d differs: %s@%v (rows %v) vs %s@%v (rows %v)",
					procs, i, b.Target, b.Start, b.Rows, a.Target, a.Start, a.Rows)
			}
		}
	}
}

// TestSectionVResultsHoldNoRecords pins the layout of the held §V results
// (DESIGN §5b.2): no type among them can reach an attack record or an
// address, so a collection over a warm store marks no member's bots.
func TestSectionVResultsHoldNoRecords(t *testing.T) {
	banned := []reflect.Type{reflect.TypeFor[dataset.Attack](), reflect.TypeFor[netip.Addr]()}
	for _, root := range []reflect.Type{reflect.TypeFor[Collaboration](), reflect.TypeFor[Chain](), reflect.TypeFor[ChainStats](), reflect.TypeFor[PairSummary]()} {
		seen := make(map[reflect.Type]bool)
		var walk func(ty reflect.Type, path string)
		walk = func(ty reflect.Type, path string) {
			switch {
			case seen[ty]:
				return
			case slices.Contains(banned, ty):
				t.Errorf("%s is a %s", path, ty)
				return
			}
			seen[ty] = true
			switch ty.Kind() {
			case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
				walk(ty.Elem(), path+"[]")
			case reflect.Map:
				walk(ty.Key(), path+"[key]")
				walk(ty.Elem(), path+"[]")
			case reflect.Struct:
				for i := range ty.NumField() {
					walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
				}
			case reflect.Interface, reflect.Func:
				t.Errorf("%s is a %s, which can reach anything", path, ty)
			}
		}
		walk(root, root.Name())
	}
}
