// Command corropt-experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	corropt-experiments -list
//	corropt-experiments -exp fig14 -scale medium -seed 1 [-o fig14.tsv]
//	corropt-experiments -exp all -scale small
//	corropt-experiments -exp fig17,fig19,ticketq -scale large -workers 16
//
// Experiments that replay fault traces (policy sweeps, the fleet study, the
// staffing grid) hand their replays to one worker pool shared by the whole
// batch; -workers bounds its concurrency (default: one worker per CPU). When
// -exp names several experiments (a comma list, or 'all'), their replays
// form one global work list so the pool load-balances across experiments
// instead of draining them one at a time; the fleet experiment's supervisor
// drains its shards on a pool of the same size. Reports are byte-identical
// for any -workers value and any batching — the flag only changes
// wall-clock time.
//
// Each experiment prints a TSV report: the same rows or series the paper
// plots, with notes comparing the measured shape against the published one.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"corropt/internal/experiments"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale   = flag.String("scale", "small", "dcn scale: small, medium, large")
		seed    = flag.Uint64("seed", 1, "random seed (equal seeds reproduce identical reports)")
		workers = flag.Int("workers", 0, "concurrent trace replays, one pool shared by every experiment of the batch (0 = one per CPU); any value produces byte-identical reports")
		out     = flag.String("o", "", "output file (default stdout)")
		format  = flag.String("format", "tsv", "output format: tsv or json")
		list    = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.List() {
			fmt.Printf("%-10s %s\n", e[0], e[1])
		}
		return
	}
	var ids []string
	if *exp == "all" {
		for _, e := range experiments.List() {
			ids = append(ids, e[0])
		}
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "corropt-experiments: -exp is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.ScaleSmall
	case "medium":
		sc = experiments.ScaleMedium
	case "large":
		sc = experiments.ScaleLarge
	default:
		fmt.Fprintf(os.Stderr, "corropt-experiments: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	write := (*experiments.Report).WriteTSV
	switch *format {
	case "tsv":
	case "json":
		write = (*experiments.Report).WriteJSON
	default:
		fmt.Fprintf(os.Stderr, "corropt-experiments: unknown format %q\n", *format)
		os.Exit(2)
	}
	cfg := experiments.Config{Scale: sc, Seed: *seed, Workers: *workers}
	if err := experiments.CheckIDs(ids); err != nil {
		fmt.Fprintf(os.Stderr, "corropt-experiments: %v\n", err)
		os.Exit(1)
	}

	// Every flag is checked before -o is created, so a typo cannot truncate
	// an existing report.
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corropt-experiments: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	start := time.Now()
	reps, err := experiments.RunMany(ids, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "corropt-experiments: %v\n", err)
		os.Exit(1)
	}
	for _, rep := range reps {
		if err := write(rep, w); err != nil {
			fmt.Fprintf(os.Stderr, "corropt-experiments: write: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "%s done in %v\n", strings.Join(ids, ","), time.Since(start).Round(time.Millisecond))
}
