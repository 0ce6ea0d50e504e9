package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSelf re-executes this binary with args and waits for it to end. The
// child's standard output is copied to stdout (when non-nil) and
// returned; its standard error passes through.
func runSelf(ctx context.Context, stdout io.Writer, args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	cmd.Stdout = &out
	if stdout != nil {
		cmd.Stdout = io.MultiWriter(&out, stdout)
	}
	if err := cmd.Run(); err != nil {
		return out.Bytes(), fmt.Errorf("%s %v: %w", filepath.Base(exe), args, err)
	}
	return out.Bytes(), nil
}

// setUpInChild runs the set-up in a child process. Keeping generation out
// of the measuring process is what makes peak_rss_mb the cost of the
// workload alone.
func setUpInChild(ctx context.Context, dir string, o options, digests string) error {
	args := []string{"-prepare", dir, "-data-seed", strconv.FormatInt(o.dataSeed, 10), "-workload", digests}
	if o.smoke {
		args = append(args, "-smoke")
	}
	_, err := runSelf(ctx, nil, args...)
	return err
}

// childArgs are the flags a measuring child inherits.
func childArgs(o options, workload string, seed int64) []string {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-data-seed", strconv.FormatInt(o.dataSeed, 10), "-seconds", formatFloat(o.seconds),
		"-trace", strconv.Itoa(o.trace), "-workdir", o.workdir}
	if o.smoke {
		args = append(args, "-smoke")
	}
	return args
}

// runAll sets up once and measures each workload in a child of its own
// over the shared inputs, so every workload's peak RSS is its own.
func runAll(ctx context.Context, o options, stdout io.Writer) error {
	dir, err := obtainInputs(ctx, o)
	if err != nil {
		return err
	}
	failed := false
	for _, def := range workloadDefs {
		args := append(childArgs(o, def.name, o.seed), "-inputs", dir)
		if _, err := runSelf(ctx, stdout, args...); err != nil {
			fmt.Fprintln(stdout, "FAILED:", err)
			failed = true
		}
	}
	if failed {
		return errOpsFailed
	}
	return nil
}

// runAA measures run-to-run agreement the way the pipeline judges it:
// each workload runs n times in each of two alternating sets, seeds
// o.seed .. o.seed+n-1 in both. For every end-to-end metric it prints both
// sets' medians and quartile spreads, how much worse the second median is
// than the first, and the declared bound. The report is markdown;
// AA.md is one such report.
func runAA(ctx context.Context, o options, stdout io.Writer) error {
	defs := workloadDefs
	if o.workload != "" && o.workload != "all" {
		def, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		defs = []workloadDef{def}
	}
	o.trace = 0
	printRunValidity(stdout)
	fmt.Fprintf(stdout, "\nA/A: %d runs per set, seeds %d..%d, %g s timed region, scale %g. spread = (q3-q1)/median; gap = how much worse set B's median is than set A's.\n",
		o.aa, o.seed, o.seed+int64(o.aa)-1, o.seconds, o.scale())
	within := true
	for _, def := range defs {
		var sets [2]map[string][]float64
		sets[0], sets[1] = map[string][]float64{}, map[string][]float64{}
		for i := 0; i < o.aa; i++ {
			for s := range sets {
				out, err := runSelf(ctx, nil, childArgs(o, def.name, o.seed+int64(i))...)
				if err != nil {
					return err
				}
				res, err := lastResult(out)
				if err != nil {
					return err
				}
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "\n### %s\n\n| metric | unit | median A | median B | spread A | spread B | gap | bound | verdict |\n|---|---|---|---|---|---|---|---|---|\n", def.name)
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			medA, medB := median(a), median(b)
			gap := (medB - medA) / medA
			if d.better == "higher" {
				gap = -gap
			}
			verdict := "ok"
			// setup_s is judged on its medians only, as the pipeline does.
			if gap > d.bound || (d.name != "setup_s" && max(spread(a), spread(b)) > d.bound) {
				verdict, within = "OUTSIDE", false
			}
			fmt.Fprintf(stdout, "| %s | %s | %.4f | %.4f | %.2f%% | %.2f%% | %+.2f%% | %.0f%% | %s |\n",
				d.name, d.unit, medA, medB, 100*spread(a), 100*spread(b), 100*gap, 100*d.bound, verdict)
		}
		fmt.Fprintf(stdout, "\nEvery run, in the order made (A1 B1 A2 B2 ...):\n\n")
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "- `%s`:", d.name)
			for i := range sets[0][d.name] {
				fmt.Fprintf(stdout, " %.4g %.4g", sets[0][d.name][i], sets[1][d.name][i])
			}
			fmt.Fprintln(stdout)
		}
	}
	if !within {
		return fmt.Errorf("A/A: a metric spread or gap exceeds its bound")
	}
	return nil
}

// lastResult parses the result line that ends a run's standard output.
func lastResult(out []byte) (result, error) {
	out = bytes.TrimSpace(out)
	line := out[bytes.LastIndexByte(out, '\n')+1:]
	var r result
	if err := json.Unmarshal(line, &r); err != nil {
		return r, fmt.Errorf("result line %q: %w", line, err)
	}
	return r, nil
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
