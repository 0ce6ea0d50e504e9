package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"botscope/internal/synth"
)

// TestWorkloadConcurrentAll is the -race exercise of what botserve does:
// one Workload shared by concurrent callers. Four goroutines run the
// whole suite on a fresh Workload, so they race on the first build of
// every shared product (store indexes, dispersion series, collaborations,
// chains), and each must get exactly the sequential results.
func TestWorkloadConcurrentAll(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation is slow")
	}
	want, err := Run(context.Background(), sharedWorkload(t).All())
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorkload(synth.Config{Seed: 17, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	got := make([][]Outcome, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = Run(context.Background(), w.All())
		}()
	}
	wg.Wait()
	for g := range callers {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want) {
			for i := range want {
				if i < len(got[g]) && !reflect.DeepEqual(got[g][i], want[i]) {
					t.Errorf("caller %d: %s differs from the sequential run", g, want[i].ID)
				}
			}
			t.Fatalf("caller %d: %d outcomes differ from the sequential run's %d", g, len(got[g]), len(want))
		}
	}
}

func TestRunAllParallelCanceled(t *testing.T) {
	w := sharedWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any work starts
	outs, err := Run(ctx, w.All())
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	if len(outs) != len(w.All()) {
		t.Fatalf("outcomes = %d, want one per experiment (%d)", len(outs), len(w.All()))
	}
	for i, o := range outs {
		if o.ID != w.All()[i].ID {
			t.Errorf("outcome %d is %s, want %s", i, o.ID, w.All()[i].ID)
		}
		if !errors.Is(o.Err, context.Canceled) || o.Res != nil {
			t.Errorf("%s ran under a canceled context: res=%v err=%v", o.ID, o.Res, o.Err)
		}
	}
}
