// Command benchguard enforces the allocation budgets of the hot-kernel
// micro-benchmarks. It parses `go test -bench -benchmem` output and fails
// when any benchmark named in the threshold file exceeds its allocs/op or
// bytes/op ceiling — or when an expected benchmark is missing from the
// run, so a renamed benchmark cannot silently drop its guard.
//
// Usage:
//
//	go test -bench '...' -benchmem ./... > bench.out
//	benchguard -in bench.out -thresholds bench_thresholds.json
//
// With -update, instead of enforcing, benchguard rewrites the threshold
// file from the run: each budgeted benchmark gets its observed allocs/op
// plus 25% headroom (minimum +4) and its observed bytes/op rounded up to
// the next power of two at least 2x the observation. The benchmark set is
// taken from the existing file, so a kernel cannot gain or lose its guard
// by accident; a budgeted benchmark missing from the run is still an error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Threshold is the budget for one benchmark, keyed by its base name
// (without the -GOMAXPROCS suffix).
type Threshold struct {
	MaxAllocsPerOp int64 `json:"max_allocs_per_op"`
	MaxBytesPerOp  int64 `json:"max_bytes_per_op"`
}

// Result is one parsed -benchmem line.
type Result struct {
	Name        string
	AllocsPerOp int64
	BytesPerOp  int64
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	var (
		in         = fs.String("in", "", "benchmark output file (default stdin)")
		thresholds = fs.String("thresholds", "bench_thresholds.json", "JSON file of per-benchmark budgets")
		update     = fs.Bool("update", false, "rewrite the threshold file from this run with headroom instead of enforcing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	data, err := os.ReadFile(*thresholds)
	if err != nil {
		return err
	}
	budgets := make(map[string]Threshold)
	if err := json.Unmarshal(data, &budgets); err != nil {
		return fmt.Errorf("%s: %w", *thresholds, err)
	}
	if len(budgets) == 0 {
		return fmt.Errorf("%s: no budgets defined", *thresholds)
	}

	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	results, err := parseBench(r)
	if err != nil {
		return err
	}

	names := make([]string, 0, len(budgets))
	for name := range budgets {
		names = append(names, name)
	}
	sort.Strings(names)

	if *update {
		return updateThresholds(*thresholds, names, budgets, results, stdout)
	}

	var failures []string
	for _, name := range names {
		budget := budgets[name]
		res, ok := results[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: expected benchmark missing from run", name))
			continue
		}
		status := "ok"
		if res.AllocsPerOp > budget.MaxAllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op exceeds budget %d",
				name, res.AllocsPerOp, budget.MaxAllocsPerOp))
			status = "FAIL"
		}
		if res.BytesPerOp > budget.MaxBytesPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d B/op exceeds budget %d",
				name, res.BytesPerOp, budget.MaxBytesPerOp))
			status = "FAIL"
		}
		fmt.Fprintf(stdout, "%-32s %8d allocs/op (budget %d)  %10d B/op (budget %d)  %s\n",
			name, res.AllocsPerOp, budget.MaxAllocsPerOp, res.BytesPerOp, budget.MaxBytesPerOp, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation budget violations:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// updateThresholds rewrites the threshold file from the observed results,
// keeping the existing benchmark set and applying headroom: allocs get
// +25% (minimum +4), bytes round up to the next power of two at least
// double the observation.
func updateThresholds(path string, names []string, budgets map[string]Threshold,
	results map[string]Result, stdout io.Writer) error {

	next := make(map[string]Threshold, len(budgets))
	for _, name := range names {
		res, ok := results[name]
		if !ok {
			return fmt.Errorf("%s: expected benchmark missing from run; cannot update its budget", name)
		}
		t := Threshold{
			MaxAllocsPerOp: allocHeadroom(res.AllocsPerOp),
			MaxBytesPerOp:  byteHeadroom(res.BytesPerOp),
		}
		next[name] = t
		fmt.Fprintf(stdout, "%-32s %8d allocs/op -> budget %d  %10d B/op -> budget %d\n",
			name, res.AllocsPerOp, t.MaxAllocsPerOp, res.BytesPerOp, t.MaxBytesPerOp)
	}
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, name := range names {
		t := next[name]
		fmt.Fprintf(&buf, "  %q: { \"max_allocs_per_op\": %d, \"max_bytes_per_op\": %d }",
			name, t.MaxAllocsPerOp, t.MaxBytesPerOp)
		if i < len(names)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// allocHeadroom budgets an allocation count with 25% headroom, at least +4.
func allocHeadroom(observed int64) int64 {
	slack := observed / 4
	if slack < 4 {
		slack = 4
	}
	return observed + slack
}

// byteHeadroom rounds up to the next power of two that is at least double
// the observation, matching the existing hand-set budgets' shape.
func byteHeadroom(observed int64) int64 {
	budget := int64(1024)
	for budget < observed*2 {
		budget *= 2
	}
	return budget
}

// parseBench extracts -benchmem results keyed by base benchmark name.
// A benchmark appearing multiple times (e.g. several -count runs) keeps
// its worst observation, so flaky near-budget runs fail rather than pass.
func parseBench(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		res := Result{Name: name, AllocsPerOp: -1, BytesPerOp: -1}
		for i := 2; i < len(fields)-1; i++ {
			switch fields[i+1] {
			case "B/op":
				if v, err := strconv.ParseInt(fields[i], 10, 64); err == nil {
					res.BytesPerOp = v
				}
			case "allocs/op":
				if v, err := strconv.ParseInt(fields[i], 10, 64); err == nil {
					res.AllocsPerOp = v
				}
			}
		}
		if res.AllocsPerOp < 0 || res.BytesPerOp < 0 {
			continue // not a -benchmem line
		}
		if prev, ok := out[name]; ok {
			if prev.AllocsPerOp > res.AllocsPerOp {
				res.AllocsPerOp = prev.AllocsPerOp
			}
			if prev.BytesPerOp > res.BytesPerOp {
				res.BytesPerOp = prev.BytesPerOp
			}
		}
		out[name] = res
	}
	return out, sc.Err()
}
