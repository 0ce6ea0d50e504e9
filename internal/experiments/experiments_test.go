package experiments

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"botscope/internal/dataset"
	"botscope/internal/synth"
)

var (
	wlOnce sync.Once
	wl     *Workload
	wlErr  error
)

func sharedWorkload(t *testing.T) *Workload {
	t.Helper()
	wlOnce.Do(func() {
		wl, wlErr = NewWorkload(synth.Config{Seed: 17, Scale: 0.05})
	})
	if wlErr != nil {
		t.Fatal(wlErr)
	}
	return wl
}

func TestFromStoreNormalizesScale(t *testing.T) {
	w := sharedWorkload(t)
	wrapped := FromStore(w.Store, 0)
	if wrapped.Scale != 1 {
		t.Errorf("Scale = %v, want normalized to 1", wrapped.Scale)
	}
	if wrapped.Store != w.Store {
		t.Error("store not carried through")
	}
}

func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation is slow")
	}
	w := sharedWorkload(t)
	outs, err := Run(context.Background(), w.All(), 1)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(outs) != len(w.All()) {
		t.Fatalf("outcomes = %d, want %d", len(outs), len(w.All()))
	}
	seen := make(map[string]bool)
	for _, o := range outs {
		r := o.Res
		if r.ID == "" || r.Title == "" {
			t.Errorf("incomplete result: %+v", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
		if strings.TrimSpace(r.Text) == "" {
			t.Errorf("%s rendered empty text", r.ID)
		}
		if len(r.Metrics) == 0 {
			t.Errorf("%s reports no metrics", r.ID)
		}
	}
	// Every experiment of the design document must be present.
	for _, id := range []string{
		"Figure 1", "Table II", "Table III", "Figure 2", "Figure 3",
		"Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8",
		"Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13",
		"Table IV", "Table V", "Figure 14", "Table VI", "Figure 15",
		"Figure 16", "Figure 17", "Figure 18",
		"Ext: Load", "Ext: Diurnal", "Ext: Calibration", "Ext: Defense", "Ext: Transfer",
	} {
		if !seen[id] {
			t.Errorf("experiment %s missing", id)
		}
	}
}

func TestKeyShapeMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation is slow")
	}
	w := sharedWorkload(t)

	// Figure 1: HTTP dominance.
	f1, err := w.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if got := metric(t, f1, "HTTP share"); got < 0.6 {
		t.Errorf("HTTP share = %v, want > 0.6", got)
	}

	// Figure 7: persistence comparison — our attacks outlast the baseline.
	f7, err := w.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if got := metric(t, f7, "share under 4 hours"); got < 0.6 || got > 0.95 {
		t.Errorf("share under 4h = %v, want about 0.8", got)
	}
	if got := metric(t, f7, "baseline share under 1.25 h"); got < 0.77 || got > 0.83 {
		t.Errorf("baseline calibration = %v, want 0.8", got)
	}

	// Figure 17: chain gaps are seconds-scale.
	f17, err := w.Figure17()
	if err != nil {
		t.Fatal(err)
	}
	if got := metric(t, f17, "share within 30 s"); got < 0.5 {
		t.Errorf("share within 30s = %v, want > 0.5", got)
	}

	// Table VI: dirtjumper leads intra-family collaboration.
	t6, err := w.TableVI()
	if err != nil {
		t.Fatal(err)
	}
	dj := metric(t, t6, "intra dirtjumper")
	for _, m := range t6.Metrics {
		if strings.HasPrefix(m.Name, "intra ") && m.Measured > dj {
			t.Errorf("%s = %v exceeds dirtjumper %v", m.Name, m.Measured, dj)
		}
	}
}

func TestMetricsText(t *testing.T) {
	r := &Result{ID: "X", Title: "t"}
	if got := r.MetricsText(); got != "" {
		t.Errorf("empty metrics rendered %q", got)
	}
	r.AddPaperMetric("alpha", 1.5, 2.0)
	r.AddMetric("beta", 3.0)
	out := r.MetricsText()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "paper") {
		t.Errorf("paper metric missing:\n%s", out)
	}
	if !strings.Contains(out, "beta") {
		t.Errorf("measured metric missing:\n%s", out)
	}
}

// metric fetches a named metric or fails the test.
func metric(t *testing.T, r *Result, name string) float64 {
	t.Helper()
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Measured
		}
	}
	t.Fatalf("metric %q not found in %s (have %v)", name, r.ID, r.Metrics)
	return 0
}

// TestClosedStoreTypedError pins that a closed store is an error, not a
// fault: every runner of a workload over a mapped snapshot answers
// dataset.ErrStoreClosed after Close, where reading the unmapped columns
// would kill the process.
func TestClosedStoreTypedError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.bscs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteSnapshot(f, sharedWorkload(t).Store); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	store, err := dataset.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	w := FromStore(store, 0.05)
	all := w.All()
	if _, err := all[0].Run(); err != nil {
		t.Fatalf("%s on the open store: %v", all[0].ID, err)
	}
	store.Close()
	for _, e := range all {
		if res, err := e.Run(); !errors.Is(err, dataset.ErrStoreClosed) {
			t.Errorf("%s on a closed store: result %v, error %v; want ErrStoreClosed", e.ID, res, err)
		}
	}
	outs, _ := Run(context.Background(), w.All(), 2)
	for _, o := range outs {
		if !errors.Is(o.Err, dataset.ErrStoreClosed) {
			t.Errorf("Run: %s on a closed store: %v", o.ID, o.Err)
		}
	}
}
