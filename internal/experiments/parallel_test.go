package experiments

import (
	"context"
	"errors"
	"testing"
)

func TestRunAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation is slow")
	}
	w := sharedWorkload(t)
	seq, err := Run(context.Background(), w.All(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), w.All(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel results = %d, sequential = %d", len(par), len(seq))
	}
	// Results arrive in All() order; IDs must match pairwise and metric
	// values must be identical (analyses are deterministic).
	for i := range seq {
		if par[i].ID != seq[i].ID {
			t.Errorf("order mismatch at %d: %s vs %s", i, par[i].ID, seq[i].ID)
			continue
		}
		pm, sm := par[i].Res.Metrics, seq[i].Res.Metrics
		if len(pm) != len(sm) {
			t.Errorf("%s metric count differs", par[i].ID)
			continue
		}
		for j := range sm {
			if pm[j].Measured != sm[j].Measured {
				t.Errorf("%s metric %q differs: %v vs %v", par[i].ID,
					sm[j].Name, pm[j].Measured, sm[j].Measured)
			}
		}
	}
}

func TestRunAllParallelCanceled(t *testing.T) {
	w := sharedWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any work starts
	outs, err := Run(ctx, w.All(), 2)
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

func TestRunAllParallelDefaultWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation is slow")
	}
	w := sharedWorkload(t)
	outs, err := Run(context.Background(), w.All(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(w.All()) {
		t.Errorf("outcomes = %d, want %d", len(outs), len(w.All()))
	}
}
