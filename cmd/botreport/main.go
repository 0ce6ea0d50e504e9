// Command botreport regenerates every table and figure of the paper's
// evaluation from a synthetic workload (or a previously exported CSV) and
// prints them with measured-vs-paper metrics.
//
// Usage:
//
//	botreport -scale 1.0 -seed 1              # full paper-size run
//	botreport -scale 0.1 -only "Table VI"     # a single experiment
//	botreport -in attacks.csv -scale 0.1      # analyze an exported workload
//	botreport -snapshot work.bscs -scale 10   # reload a botgen snapshot
//	botreport -markdown > EXPERIMENTS.md      # metric comparison as markdown
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"botscope"
	"botscope/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "botreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("botreport", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "generation seed")
		scale    = fs.Float64("scale", 1.0, "workload scale; 1.0 = paper size")
		in       = fs.String("in", "", "analyze this attack CSV instead of generating")
		snapshot = fs.String("snapshot", "", "analyze this binary columnar snapshot (.bscs) instead of generating")
		only     = fs.String("only", "", "run only the experiment with this ID (e.g. 'Figure 3')")
		markdown = fs.Bool("markdown", false, "emit a markdown metric comparison instead of full text")
		parallel = fs.Int("parallel", 0, "run experiments concurrently with this many workers (0 = sequential)")
		workers  = fs.Int("workers", 0, "generation worker count (0 = all cores; output is identical either way)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		w   *experiments.Workload
		err error
	)
	if *snapshot != "" && *in != "" {
		return fmt.Errorf("-snapshot and -in are mutually exclusive")
	}
	if *snapshot != "" {
		f, ferr := os.Open(*snapshot)
		if ferr != nil {
			return ferr
		}
		store, serr := botscope.ReadSnapshot(f)
		_ = f.Close()
		if serr != nil {
			return serr
		}
		defer store.Close()
		info := store.SnapshotInfo()
		fmt.Fprintf(os.Stderr, "loaded snapshot %s (v%d, %d bytes, mmap=%t)\n",
			*snapshot, info.Version, info.Bytes, info.Mapped)
		w = experiments.FromStore(store, *scale)
	} else if *in != "" {
		f, ferr := os.Open(*in)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		attacks, rerr := botscope.ReadCSV(f)
		if rerr != nil {
			return rerr
		}
		store, serr := botscope.NewStore(attacks, nil, nil)
		if serr != nil {
			return serr
		}
		w = experiments.FromStore(store, *scale)
	} else {
		fmt.Fprintf(os.Stderr, "generating workload (seed %d, scale %.3f)...\n", *seed, *scale)
		w, err = experiments.NewWorkload(botscope.GenerateConfig{Seed: *seed, Scale: *scale, Workers: *workers})
		if err != nil {
			return err
		}
	}

	exps := w.All()
	if *only != "" {
		var match []experiments.Experiment
		for _, e := range exps {
			if strings.EqualFold(e.ID, *only) {
				match = append(match, e)
			}
		}
		if len(match) == 0 {
			return fmt.Errorf("no experiment matches %q", *only)
		}
		exps = match
	}
	// Every mode prints what succeeded, names what failed, and returns the
	// runner's error so a partial report exits non-zero. -parallel 0 is the
	// sequential case, not the runner's "all cores".
	outs, err := experiments.Run(context.Background(), exps, max(*parallel, 1))
	if *markdown {
		writeMarkdown(stdout, outs)
		return err
	}
	for _, o := range outs {
		if o.Err != nil {
			fmt.Fprintf(stdout, "== %s: FAILED: %v\n\n", o.ID, o.Err)
			continue
		}
		fmt.Fprintf(stdout, "== %s — %s\n%s%s\n", o.Res.ID, o.Res.Title, o.Res.Text, o.Res.MetricsText())
	}
	return err
}

// writeMarkdown emits the EXPERIMENTS.md comparison table.
func writeMarkdown(w io.Writer, outs []experiments.Outcome) {
	fmt.Fprintln(w, "| Experiment | Metric | Measured | Paper |")
	fmt.Fprintln(w, "|---|---|---:|---:|")
	for _, o := range outs {
		if o.Err != nil {
			fmt.Fprintf(w, "| %s | (failed: %v) | | |\n", o.ID, o.Err)
			continue
		}
		for _, m := range o.Res.Metrics {
			paper := ""
			if m.PaperKnown {
				paper = fmt.Sprintf("%.3f", m.Paper)
			}
			fmt.Fprintf(w, "| %s | %s | %.3f | %s |\n", o.Res.ID, m.Name, m.Measured, paper)
		}
	}
}
