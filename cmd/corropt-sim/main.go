// Command corropt-sim runs one trace-driven mitigation simulation: a
// synthetic fault trace replays against a Clos data center while the chosen
// policy (none, switch-local, fast-only, corropt) disables corrupting links
// under a per-ToR capacity constraint.
//
// Usage:
//
//	corropt-sim -policy corropt -capacity 0.75 -days 90 -pods 8
//	corropt-sim -policy switch-local -trace-out faults.jsonl
//	corropt-sim -policy corropt -trace-in faults.jsonl -series
//
// Declarative scenarios (see scenarios/ and DESIGN.md §7.6):
//
//	corropt-sim run scenarios/flap_storm.json
//	corropt-sim run -golden scenarios/fig14_small.json
//	corropt-sim validate scenarios/*.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"corropt"
	"corropt/internal/core"
	"corropt/internal/trace"
)

func main() {
	// Subcommand forms first; anything else is the legacy flag mode.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			runScenarioCmd(os.Args[2:])
			return
		case "validate":
			validateCmd(os.Args[2:])
			return
		}
	}

	var (
		policyName = flag.String("policy", "corropt", strings.Join(core.PolicyNames(), " | "))
		capacity   = flag.Float64("capacity", 0.75, "per-ToR capacity constraint c in [0,1]")
		days       = flag.Int("days", 90, "simulated horizon in days")
		pods       = flag.Int("pods", 8, "pods in the simulated Clos (≈80 links per pod)")
		faultRate  = flag.Float64("fault-rate", 1.0/3000, "faults per link per day")
		accuracy   = flag.Float64("repair-accuracy", 0.8, "first-attempt repair success probability")
		seed       = flag.Uint64("seed", 1, "random seed")
		series     = flag.Bool("series", false, "print the hourly penalty series as TSV")
		traceIn    = flag.String("trace-in", "", "replay a fault trace from this JSONL file")
		traceOut   = flag.String("trace-out", "", "write the generated fault trace to this JSONL file")
	)
	flag.Parse()

	policy, ok := core.PolicyByName(*policyName)
	if !ok {
		fatalf("unknown policy %q", *policyName)
	}

	topo, err := corropt.NewClos(corropt.ClosConfig{
		Pods: *pods, ToRsPerPod: 12, AggsPerPod: 4,
		Spines: 32, SpineUplinksPerAgg: 8, BreakoutSize: 4,
	})
	if err != nil {
		fatalf("topology: %v", err)
	}
	tech := corropt.DefaultTechnologies()[1]
	horizon := time.Duration(*days) * 24 * time.Hour

	var faults []*corropt.Fault
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fatalf("%v", err)
		}
		faults, err = trace.Read(f)
		f.Close()
		if err != nil {
			fatalf("read trace: %v", err)
		}
	} else {
		inj, err := corropt.NewInjector(topo, tech, corropt.InjectorConfig{FaultsPerLinkPerDay: *faultRate}, *seed)
		if err != nil {
			fatalf("injector: %v", err)
		}
		faults = inj.Generate(horizon)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := trace.Write(f, faults); err != nil {
			fatalf("write trace: %v", err)
		}
		f.Close()
	}

	s, err := corropt.NewSim(topo, tech, corropt.SimConfig{
		Policy:        policy,
		Capacity:      *capacity,
		FixedAccuracy: *accuracy,
		Seed:          *seed,
	})
	if err != nil {
		fatalf("sim: %v", err)
	}
	res, err := s.Run(faults, horizon)
	if err != nil {
		fatalf("run: %v", err)
	}

	fmt.Printf("topology:            %d links, %d switches, %d ToRs\n",
		topo.NumLinks(), topo.NumSwitches(), len(topo.ToRs()))
	fmt.Printf("policy:              %v (capacity %.0f%%)\n", policy, *capacity*100)
	fmt.Printf("faults replayed:     %d over %d days\n", len(faults), *days)
	fmt.Printf("corruption reports:  %d (capacity-blocked %d)\n", res.CorruptionReports, res.UndisabledEvents)
	fmt.Printf("tickets opened:      %d (first-attempt success %.0f%%, mean attempts %.2f)\n",
		res.TicketsOpened, 100*res.FirstAttemptSuccessRate, res.MeanAttempts)
	fmt.Printf("integrated penalty:  %.6g penalty-seconds\n", res.IntegratedPenalty)
	worst := 1.0
	for _, smp := range res.Samples {
		if smp.WorstToRFraction < worst {
			worst = smp.WorstToRFraction
		}
	}
	fmt.Printf("worst ToR fraction:  %.3f (constraint %.3f)\n", worst, *capacity)

	if *series {
		fmt.Println("hour\tpenalty\tworst_tor_fraction\tactive_corrupting\tdisabled")
		for _, smp := range res.Samples {
			fmt.Printf("%d\t%.6g\t%.4f\t%d\t%d\n",
				int(smp.At/time.Hour), smp.Penalty, smp.WorstToRFraction,
				smp.ActiveCorrupting, smp.Disabled)
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "corropt-sim: "+format+"\n", args...)
	os.Exit(1)
}
