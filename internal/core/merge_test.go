package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"botscope/internal/dataset"
)

// The merge laws behind the shard-count parity: for each keyed
// accumulator, folding the parts of a random partition of one feed and
// merging them in any order renders what folding the whole feed renders.

var lawFamilies = []dataset.Family{dataset.Dirtjumper, dataset.Pandora, dataset.Blackenergy, dataset.Darkshell, dataset.Nitol}

// lawFeed is a seeded start-ordered feed spanning some forty days, a few
// of them without an attack.
func lawFeed(rng *rand.Rand) []*dataset.Attack {
	var feed []*dataset.Attack
	start := t0.Add(7 * time.Hour)
	for id := 1; id <= 1500; id++ {
		step := time.Duration(rng.Intn(90)) * time.Minute
		if rng.Intn(200) == 0 {
			step += 60 * time.Hour
		}
		start = start.Add(step)
		a := mkAttack(dataset.DDoSID(id), lawFamilies[rng.Intn(len(lawFamilies))], dataset.BotnetID(1+rng.Intn(9)), "5.5.5.1", start, time.Hour)
		a.Category = dataset.Categories[rng.Intn(len(dataset.Categories))]
		feed = append(feed, a)
	}
	return feed
}

// lawPartitions calls check with random k-way partitions of n items, each
// part in feed order and the parts in shuffled order, for k in {1,2,4,7}.
// Every partition with k > 1 has at least one empty part.
func lawPartitions(t *testing.T, rng *rand.Rand, n int, check func(t *testing.T, parts [][]int)) {
	for _, k := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			for round := 0; round < 5; round++ {
				parts := make([][]int, k)
				for i := 0; i < n; i++ {
					p := rng.Intn(k)
					if k > 1 && p == 0 {
						p = 1
					}
					parts[p] = append(parts[p], i)
				}
				rng.Shuffle(k, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
				check(t, parts)
			}
		})
	}
}

func TestTypeCountsMergeLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	feed := lawFeed(rng)
	var whole TypeCounts
	for _, a := range feed {
		whole.Add(a.Category, a.Family, 1)
	}
	lawPartitions(t, rng, len(feed), func(t *testing.T, parts [][]int) {
		var merged TypeCounts
		for _, part := range parts {
			var tc TypeCounts
			for _, i := range part {
				tc.Add(feed[i].Category, feed[i].Family, 1)
			}
			for _, row := range tc.FamilyProtocol() {
				merged.Add(row.Category, row.Family, row.Count)
			}
		}
		if got, want := merged.Protocols(), whole.Protocols(); !reflect.DeepEqual(got, want) {
			t.Errorf("Figure 1 from parts = %v, want %v", got, want)
		}
		if got, want := merged.FamilyProtocol(), whole.FamilyProtocol(); !reflect.DeepEqual(got, want) {
			t.Errorf("Table II from parts = %v, want %v", got, want)
		}
	})
}

func TestDailyFoldMergeLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	feed := lawFeed(rng)
	var whole DailyFold
	for _, a := range feed {
		whole.Observe(a.Start, a.Family)
	}
	want := whole.Result()
	if span := int(want.Days[len(want.Days)-1].Day.Sub(want.Days[0].Day).Hours()/24) + 1; span == len(want.Days) {
		t.Fatal("the feed has no gap day: the covered-span average is not exercised")
	}
	lawPartitions(t, rng, len(feed), func(t *testing.T, parts [][]int) {
		results := make([]DailyStats, len(parts))
		for p, part := range parts {
			var d DailyFold
			for _, i := range part {
				d.Observe(feed[i].Start, feed[i].Family)
			}
			results[p] = d.Result()
		}
		if got := MergeDaily(results...); !reflect.DeepEqual(got, want) {
			t.Errorf("Figure 2 from parts: peak (%d, %v, %s) average %v over %d days, want (%d, %v, %s) %v over %d",
				got.Max, got.MaxDay, got.MaxDominantFamily, got.Average, len(got.Days),
				want.Max, want.MaxDay, want.MaxDominantFamily, want.Average, len(want.Days))
		}
	})
}

func TestCollabCountsMergeLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	collabs := make([]*Collaboration, 300)
	for i := range collabs {
		// Families ascend as the qualifier renders them: a random non-empty
		// subset of the pool, in pool order.
		c := &Collaboration{}
		for c.Families == nil {
			for _, f := range []dataset.Family{dataset.Blackenergy, dataset.Dirtjumper, dataset.Nitol, dataset.Pandora} {
				if rng.Intn(3) == 0 {
					c.Families = append(c.Families, f)
				}
			}
		}
		for n := 2 + rng.Intn(4); n > 0; n-- {
			c.Attacks = append(c.Attacks, &dataset.Attack{BotnetID: dataset.BotnetID(1 + rng.Intn(5))})
		}
		collabs[i] = c
	}
	want := AnalyzeCollaborationsFrom(collabs).CollabCounts
	lawPartitions(t, rng, len(collabs), func(t *testing.T, parts [][]int) {
		merged := NewCollabCounts()
		for _, part := range parts {
			cc := NewCollabCounts()
			for _, i := range part {
				cc.Add(collabs[i])
			}
			merged.Merge(&cc)
		}
		if !reflect.DeepEqual(merged, want) {
			t.Errorf("Table VI from parts = %+v, want %+v", merged, want)
		}
	})
}

// TestQualifierFacesAgree runs the §V qualifier's two faces over the same
// random start-window groups: the detector over a store's rows and
// QualifyCollaboration over the records in row order. Durations come from
// a handful of values so most groups hold ties, and a third of the groups
// have more than twelve members — past the inlined insertion sort — the
// two cases in which "same subset, same member order" rests on both faces
// running one sort over one initial order.
func TestQualifierFacesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	groups := make(map[string][]*dataset.Attack)
	var all []*dataset.Attack
	id, ties, large := dataset.DDoSID(0), 0, 0
	for g := 0; g < 150; g++ {
		target := fmt.Sprintf("5.5.%d.%d", g/200, 1+g%200)
		size := 2 + rng.Intn(6)
		if g%3 == 0 {
			size = 13 + rng.Intn(12)
			large++
		}
		start, seen := t0.Add(time.Duration(g)*time.Hour), map[time.Duration]bool{}
		for m := 0; m < size; m++ {
			id++
			// Ids and starts ascend together: row order is group order.
			start = start.Add(time.Duration(rng.Intn(3)) * time.Second)
			dur := time.Duration(rng.Intn(6)) * 11 * time.Minute
			if seen[dur] {
				ties++
			}
			seen[dur] = true
			a := mkAttack(id, lawFamilies[rng.Intn(3)], dataset.BotnetID(1+rng.Intn(3)), target, start, dur)
			groups[target] = append(groups[target], a)
			all = append(all, a)
		}
	}
	if ties == 0 || large == 0 {
		t.Fatalf("%d duration ties, %d groups past twelve members: the test has lost its cases", ties, large)
	}

	byTarget := make(map[string]*Collaboration)
	for _, c := range detectCollaborations(mustStore(t, all), SimultaneousThreshold, CollabDurationWindow, 1) {
		byTarget[c.Target] = c
	}
	qualified := 0
	for target, group := range groups {
		rows, recs := byTarget[target], QualifyCollaboration(target, group, CollabDurationWindow)
		if (rows == nil) != (recs == nil) {
			t.Fatalf("target %s (%d members): row face qualified = %v, record face = %v", target, len(group), rows != nil, recs != nil)
		}
		if rows == nil {
			continue
		}
		qualified++
		if !reflect.DeepEqual(rows.Families, recs.Families) || !rows.Start.Equal(recs.Start) || len(rows.Attacks) != len(recs.Attacks) {
			t.Fatalf("target %s: row face (%v, %v, %d members), record face (%v, %v, %d)", target,
				rows.Families, rows.Start, len(rows.Attacks), recs.Families, recs.Start, len(recs.Attacks))
		}
		for i := range rows.Attacks {
			if rows.Attacks[i].ID != recs.Attacks[i].ID {
				t.Fatalf("target %s: member %d is attack %d by rows, %d by records", target, i, rows.Attacks[i].ID, recs.Attacks[i].ID)
			}
		}
	}
	if qualified < 20 || qualified == len(groups) {
		t.Fatalf("%d of %d groups qualified: both outcomes must occur", qualified, len(groups))
	}
}
