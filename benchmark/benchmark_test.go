package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestPercentile(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(1000 - i) // unsorted on purpose: 1000..1
	}
	for _, tc := range []struct {
		p         float64
		want      float64
		supported bool
	}{
		{0.50, 500, true},
		{0.90, 900, true},
		{0.99, 990, true}, // exactly ten samples lie beyond rank 990
	} {
		got, ok := percentile(samples, tc.p)
		if got != tc.want || ok != tc.supported {
			t.Errorf("percentile(1000 samples, %v) = %v, %v; want %v, %v", tc.p, got, ok, tc.want, tc.supported)
		}
	}
	// 999 samples leave only nine beyond p99; 56 leave five beyond p90.
	if _, ok := percentile(samples[:999], 0.99); ok {
		t.Error("p99 of 999 samples reported as supported")
	}
	if v, ok := percentile(samples[:56], 0.90); ok || v == 0 {
		t.Errorf("p90 of 56 samples = %v, supported %v; want a value, unsupported", v, ok)
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile(nil) = %v, %v", v, ok)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// Three passes of two ops in varying order: op 0's samples are 1, 5, 3.
	ops := []opSample{{0, 1, 0}, {1, 10, 0}, {1, 30, 1}, {0, 5, 1}, {0, 3, 2}, {1, 20, 2}}
	if got := opMedians(ops, nil); len(got) != 2 || got[0] != 3 || got[1] != 20 {
		t.Errorf("opMedians = %v, want [3 20]", got)
	}
	// Scaled, each sample takes the factor of its own mark: with one
	// calibration sample per mark, the reference over that sample.
	h := &hostSpeed{samples: []float64{calibRefS, 2 * calibRefS, 4 * calibRefS}}
	if got := opMedians(ops[:2], h); got[0] != 0.5 || got[1] != 5 {
		t.Errorf("scaled opMedians = %v, want [0.5 5] under the run's one factor of a half", got)
	}
}

func TestHostSpeed(t *testing.T) {
	h := hostSpeed{rounds: 1}
	h.keepUp(0) // nothing measured yet: exactly one sample
	if len(h.samples) != 1 || h.samples[0] <= 0 || h.spentS <= 0 {
		t.Fatalf("samples = %v, spent %v; want one positive sample", h.samples, h.spentS)
	}
	h.keepUp(h.spentS) // calibration is already ahead of its share
	if len(h.samples) != 1 {
		t.Fatalf("sampled while ahead of its share: %v", h.samples)
	}
	owed := 10 * h.spentS
	h.keepUp(owed / calibShare)
	if len(h.samples) < 2 || h.spentS <= owed {
		t.Fatalf("did not catch up with its share: %d samples, spent %v of %v", len(h.samples), h.spentS, owed)
	}
	// Twelve samples, the host twice as slow for the second half: a timing
	// takes the median of the localSamples samples around its mark, and the
	// window stays inside the run at both ends.
	h.samples = nil
	for i := 0; i < 12; i++ {
		h.samples = append(h.samples, calibRefS*float64(1+i/6))
	}
	for mark, want := range map[int]float64{0: 1, 4: 1, 6: 1 / 1.5, 8: 0.5, 12: 0.5} {
		if got := h.factorAt(mark); math.Abs(got-want) > 1e-12 {
			t.Errorf("factorAt(%d) = %v, want %v", mark, got, want)
		}
	}
	wall, scaled := h.scale([]timing{{2, 0}, {2, 12}})
	if wall[0] != 2 || wall[1] != 2 || scaled[0] != 2 || scaled[1] != 1 {
		t.Errorf("scale = %v %v, want [2 2] [2 1]", wall, scaled)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Pass: 1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Pass: 1, Start: 10, End: 40},  // nested
		{ID: 2, Parent: 1, Name: "aa", Pass: 1, Start: 15, End: 25}, // grandchild: a's, not pass's
		{ID: 3, Parent: 0, Name: "b", Pass: 1, Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 0, Name: "c", Pass: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: -1, Name: "pass", Pass: 2, Start: 200, End: 230},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (30 + 20 + 10), // a covers 10-40, b adds 40-60, c clipped to 90-100
		30 - 10,
		10,
		30,
		30,
		30,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	got := layerMillis(spans, self, "pass")
	if len(got) != 2 || got[0] != 40e-6 || got[1] != 30e-6 {
		t.Errorf("layerMillis(pass) = %v, want one value per pass: [4e-05 3e-05]", got)
	}
	if got := layerMillis(spans, self, "a", "aa"); len(got) != 1 || got[0] != 30e-6 {
		t.Errorf("layerMillis(a, aa) = %v, want [3e-05]", got)
	}
}

func TestTracerParents(t *testing.T) {
	var off *tracer
	off.end(off.begin("x")) // tracing off: no-ops on a nil tracer
	if off.nextPass() != 0 {
		t.Error("nil tracer counted a pass")
	}

	tr := newTracer()
	tr.nextPass()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[sibling].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents = %d %d %d, want %d %d -1", tr.spans[inner].Parent, tr.spans[sibling].Parent, tr.spans[outer].Parent, outer, outer)
	}
	for _, s := range tr.spans {
		if s.Pass != 1 || s.End < s.Start {
			t.Errorf("span %+v: want pass 1 and end >= start", s)
		}
	}
}

// smokeInputs prepares one smoke-size directory for every test that needs
// inputs.
var smokeInputs = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "botscope-benchmark-test-")
	if err != nil {
		return "", err
	}
	return dir, prepareInputs(dir, 1, true, "all")
})

func TestMain(m *testing.M) {
	code := m.Run()
	if dir, err := smokeInputs(); err == nil {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

// runSmoke runs the command in-process against the prepared directory and
// returns its output and parsed result line.
func runSmoke(t *testing.T, dir string, args ...string) (string, result, error) {
	t.Helper()
	var out bytes.Buffer
	args = append([]string{"-smoke", "-inputs", dir, "-workdir", t.TempDir()}, args...)
	err := run(context.Background(), args, &out)
	res, perr := lastResult(out.Bytes())
	if perr != nil {
		t.Fatalf("%v: no result line: %v\n%s", args, perr, out.String())
	}
	return out.String(), res, err
}

// TestSmokeAllWorkloads drives all four workloads end to end and traced at
// smoke size: every declared metric must be present, every check must pass.
func TestSmokeAllWorkloads(t *testing.T) {
	dir, err := smokeInputs()
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloadDefs {
		for _, mode := range []struct {
			trace string
			defs  []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			out, res, err := runSmoke(t, dir, "-workload", def.name, "-trace", mode.trace)
			if err != nil {
				t.Fatalf("%s trace=%s: %v\n%s", def.name, mode.trace, err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", def.name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(mode.defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", def.name, mode.trace, len(res.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%s: metric %s = %+v (present %v), want a finite value in %s", def.name, mode.trace, d.name, v, ok, d.unit)
				}
				if mode.trace == "0" && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, d.name, v.Value)
				}
			}
			if !strings.Contains(out, "host.num_cpu=") {
				t.Errorf("%s trace=%s: output lacks the run-validity line", def.name, mode.trace)
			}
		}
	}
}

// TestFailureAccounting corrupts each reference digest in turn: the
// workload that checks it must count failed ops, still print its result
// line, and return the error that makes the process exit non-zero.
func TestFailureAccounting(t *testing.T) {
	good, err := smokeInputs()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload string
		corrupt  func(*expect)
	}{
		{"report_batch", func(e *expect) { e.Report = strings.Repeat("0", 64) }},
		{"explore_warm", func(e *expect) { e.Explore["/api/summary"] = strings.Repeat("0", 64) }},
		{"live_single", func(e *expect) { e.Live["/api/live/daily"] = strings.Repeat("0", 64) }},
		{"live_sharded", func(e *expect) { delete(e.Live, "/api/live/load") }},
	} {
		bad := t.TempDir()
		for _, name := range []string{snapshotFile, feedFile, manifestFile} {
			if err := os.Symlink(filepath.Join(good, name), filepath.Join(bad, name)); err != nil {
				t.Fatal(err)
			}
		}
		var ex expect
		if err := readJSON(filepath.Join(good, expectFile), &ex); err != nil {
			t.Fatal(err)
		}
		tc.corrupt(&ex)
		if err := writeJSON(filepath.Join(bad, expectFile), &ex); err != nil {
			t.Fatal(err)
		}
		out, res, err := runSmoke(t, bad, "-workload", tc.workload)
		if !errors.Is(err, errOpsFailed) {
			t.Errorf("%s with a corrupted expect.json: err = %v, want errOpsFailed\n%s", tc.workload, err, out)
		}
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want failures counted", tc.workload, res.Correct, res.Failed, res.Attempted)
		}
		if !strings.Contains(out, "FAILED:") {
			t.Errorf("%s: output does not say what failed:\n%s", tc.workload, out)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the pipeline reads, in
// step with the tables this program measures by.
func TestBenchmarkJSON(t *testing.T) {
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 10 {
		t.Errorf("run_seconds = %d, the timed region must not drop below 10 s", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadDefs) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloadDefs), len(endToEnd), len(perLayer))
	}
	for i, w := range workloadDefs {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v, want %+v", i, got, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25], the range the pipeline accepts", d.name, d.bound)
		}
	}
	for i, d := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per_layer %d: %+v, want %+v", i, got, d)
		}
	}
}
