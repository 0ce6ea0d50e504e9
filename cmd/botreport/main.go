// Command botreport regenerates every table and figure of the paper's
// evaluation from a synthetic workload (or a botgen JSONL export) and
// prints them with measured-vs-paper metrics.
//
// Usage:
//
//	botreport -scale 1.0 -seed 1              # full paper-size run
//	botreport -scale 0.1 -only "Table VI"     # a single experiment
//	botreport -in attacks.jsonl -scale 0.1    # analyze an exported workload
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
		in       = fs.String("in", "", "analyze this JSONL attack file instead of generating")
		snapshot = fs.String("snapshot", "", "analyze this binary columnar snapshot (.bscs) instead of generating")
		only     = fs.String("only", "", "run only the experiment with this ID (e.g. 'Figure 3')")
		markdown = fs.Bool("markdown", false, "emit a markdown metric comparison instead of full text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *in == "" && *snapshot == "" {
		fmt.Fprintf(os.Stderr, "generating workload (seed %d, scale %.3f)...\n", *seed, *scale)
	}
	store, err := botscope.Source{Seed: *seed, Scale: *scale, In: *in, Snapshot: *snapshot}.Open()
	if err != nil {
		return err
	}
	defer store.Close()
	if *snapshot != "" {
		info := store.SnapshotInfo()
		fmt.Fprintf(os.Stderr, "loaded snapshot %s (v%d, %d bytes, mmap=%t)\n",
			*snapshot, info.Version, info.Bytes, info.Mapped)
	}
	w := experiments.FromStore(store, *scale)

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
	// runner's error so a partial report exits non-zero.
	outs, err := experiments.Run(context.Background(), exps)
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
