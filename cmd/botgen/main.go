// Command botgen generates a synthetic botnet-DDoS workload calibrated to
// the paper and exports it as JSON lines.
//
// Usage:
//
//	botgen -scale 0.1 -seed 42 -out attacks.jsonl
//	botgen -scale 1.0 -out attacks.jsonl   # paper-size
//	botgen -scale 10 -snapshot work.bscs   # binary snapshot
//
// The export carries the DDoSAttack schema (Table I); use -summary to
// print the Table III entity counts of the generated workload. -snapshot
// writes the full workload (attacks, bots, botnets, indexes) as a binary
// columnar snapshot that botreport/botserve reload in seconds
// instead of regenerating; when -snapshot is given without -out, the
// record export to stdout is skipped.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"botscope"
	"botscope/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "botgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("botgen", flag.ContinueOnError)
	var (
		seed     = fs.Int64("seed", 1, "generation seed (same seed, same workload)")
		scale    = fs.Float64("scale", 0.1, "workload scale; 1.0 = paper size (50,704 attacks)")
		out      = fs.String("out", "", "output file (default stdout)")
		summary  = fs.Bool("summary", false, "print Table III-style workload summary to stderr")
		snapshot = fs.String("snapshot", "", "also write a binary columnar snapshot (.bscs) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	store, err := botscope.Generate(botscope.GenerateConfig{Seed: *seed, Scale: *scale})
	if err != nil {
		return err
	}

	if *snapshot != "" {
		if err := writeSnapshotFile(*snapshot, store); err != nil {
			return err
		}
	}

	// A snapshot request without an explicit -out means the caller wants the
	// binary artifact, not a record dump on stdout.
	if *snapshot == "" || *out != "" {
		var w io.Writer = stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := botscope.WriteJSONL(w, store.Attacks()); err != nil {
			return err
		}
	}

	if *summary {
		sum := store.Summary()
		t := report.NewTable("workload summary", "description", "count")
		t.SetAlign(1, report.AlignRight)
		t.AddRow("attacks", report.FormatInt(sum.Attacks))
		t.AddRow("botnets", report.FormatInt(sum.Botnets))
		t.AddRow("bot IPs", report.FormatInt(sum.BotIPs))
		t.AddRow("target IPs", report.FormatInt(sum.TargetIPs))
		t.AddRow("source countries", report.FormatInt(sum.SourceCountries))
		t.AddRow("target countries", report.FormatInt(sum.TargetCountries))
		t.AddRow("traffic types", report.FormatInt(sum.TrafficTypes))
		fmt.Fprint(os.Stderr, t.String())
	}
	return nil
}

func writeSnapshotFile(path string, store *botscope.Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := botscope.WriteSnapshot(f, store); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
