// Command corropt-topo generates, inspects, and validates data center
// topologies in the JSON format the other tools consume.
//
// Usage:
//
//	corropt-topo gen -pods 8 -tors 12 -aggs 4 -spines 32 -uplinks 8 -o dc.json
//	corropt-topo info dc.json
//	corropt-topo paths -capacity 0.75 dc.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"corropt"
	"corropt/internal/topology"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "paths":
		paths(os.Args[2:])
	case "dot":
		dot(os.Args[2:])
	case "mkstate":
		mkstate(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `corropt-topo: usage:
  corropt-topo gen  [-pods N -tors N -aggs N -spines N -uplinks N -breakout N] [-fattree K] [-o file]
  corropt-topo info <file>
  corropt-topo paths [-capacity C] <file>
  corropt-topo dot [-state file] <file>   (Graphviz on stdout; -state marks disabled links)
  corropt-topo mkstate [-disable 0,3,17] [-capacity C] [-o file] <file>   (write a corroptd state file)`)
	os.Exit(2)
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		pods     = fs.Int("pods", 8, "pods")
		tors     = fs.Int("tors", 12, "ToRs per pod")
		aggs     = fs.Int("aggs", 4, "aggregation switches per pod")
		spines   = fs.Int("spines", 32, "spine switches")
		uplinks  = fs.Int("uplinks", 8, "spine uplinks per aggregation switch")
		breakout = fs.Int("breakout", 4, "breakout cable size (0 = none)")
		fattree  = fs.Int("fattree", 0, "generate a k-ary fat-tree instead (even k)")
		out      = fs.String("o", "", "output file (default stdout)")
	)
	fs.Parse(args)

	var topo *corropt.Topology
	var err error
	if *fattree > 0 {
		topo, err = corropt.NewFatTree(*fattree)
	} else {
		topo, err = corropt.NewClos(corropt.ClosConfig{
			Pods: *pods, ToRsPerPod: *tors, AggsPerPod: *aggs,
			Spines: *spines, SpineUplinksPerAgg: *uplinks, BreakoutSize: *breakout,
		})
	}
	if err != nil {
		fatal(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if _, err := topo.WriteTo(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "generated %d switches, %d links\n", topo.NumSwitches(), topo.NumLinks())
}

func load(path string) *corropt.Topology {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	topo, err := topology.Read(f)
	if err != nil {
		fatal(err)
	}
	return topo
}

func info(args []string) {
	if len(args) != 1 {
		usage()
	}
	topo := load(args[0])
	fmt.Printf("switches:  %d (%d ToRs, %d spines, %d stages)\n",
		topo.NumSwitches(), len(topo.ToRs()), len(topo.Spines()), topo.Stages())
	fmt.Printf("links:     %d\n", topo.NumLinks())
	fmt.Printf("tiers:     %d above the ToR level\n", topo.Tiers())
	// Radix summary per stage.
	radix := make(map[int][2]int) // stage -> [minUp, maxUp]
	topo.Switches(func(s *topology.Switch) {
		if int(s.Stage) == topo.Stages()-1 {
			return
		}
		e, ok := radix[int(s.Stage)]
		n := len(topo.Uplinks(s.ID))
		if !ok {
			radix[int(s.Stage)] = [2]int{n, n}
			return
		}
		if n < e[0] {
			e[0] = n
		}
		if n > e[1] {
			e[1] = n
		}
		radix[int(s.Stage)] = e
	})
	for st := 0; st < topo.Stages()-1; st++ {
		e := radix[st]
		fmt.Printf("stage %d:   uplink radix %d..%d\n", st, e[0], e[1])
	}
	pc := corropt.NewPathCounter(topo)
	total := pc.Total()
	minP, maxP := int64(1<<62), int64(0)
	for _, tor := range topo.ToRs() {
		if total[tor] < minP {
			minP = total[tor]
		}
		if total[tor] > maxP {
			maxP = total[tor]
		}
	}
	fmt.Printf("ToR→spine valley-free paths: %d..%d\n", minP, maxP)
}

func paths(args []string) {
	fs := flag.NewFlagSet("paths", flag.ExitOnError)
	capacity := fs.Float64("capacity", 0.75, "capacity constraint to analyze")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	topo := load(fs.Arg(0))
	pc := corropt.NewPathCounter(topo)
	total := pc.Total()
	fmt.Printf("capacity constraint c = %.0f%%\n", *capacity*100)
	// Per-ToR disable budget at this constraint, and the switch-local
	// equivalent.
	r := topo.Tiers()
	sc := 1.0
	if r > 0 {
		sc = pow(*capacity, 1.0/float64(r))
	}
	fmt.Printf("switch-local equivalent: sc = c^(1/%d) = %.4f\n", r, sc)
	seen := make(map[int]bool)
	topo.Switches(func(s *topology.Switch) {
		m := len(topo.Uplinks(s.ID))
		if int(s.Stage) == topo.Stages()-1 || seen[m] {
			return
		}
		seen[m] = true
		budget := int(float64(m) * (1 - sc))
		fmt.Printf("  a %d-uplink switch may disable at most %d uplink(s) under switch-local\n", m, budget)
	})
	tor := topo.ToRs()[0]
	fmt.Printf("example ToR %q: %d total paths; CorrOpt may remove up to %d of them\n",
		topo.Switch(tor).Name, total[tor], total[tor]-int64(float64(total[tor])*(*capacity)+0.999999))
}

func dot(args []string) {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	stateFile := fs.String("state", "", "overlay disabled links from a corroptd state file (dashed red)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	topo := load(fs.Arg(0))
	var disabled topology.DisabledFunc
	if *stateFile != "" {
		net, err := corropt.NewNetwork(topo, 0)
		if err != nil {
			fatal(err)
		}
		f, err := os.Open(*stateFile)
		if err != nil {
			fatal(err)
		}
		if err := net.LoadState(f); err != nil {
			f.Close()
			fatal(err)
		}
		f.Close()
		disabled = net.DisabledFunc()
	}
	if err := topo.WriteDOT(os.Stdout, disabled); err != nil {
		fatal(err)
	}
}

// mkstate writes a corroptd state file with the given links disabled — the
// supported replacement for ad-hoc scratch programs that hand-built state
// files. Unlike those, it validates every link id against the topology and
// reports every I/O error.
func mkstate(args []string) {
	fs := flag.NewFlagSet("mkstate", flag.ExitOnError)
	var (
		disable  = fs.String("disable", "", "comma-separated link ids to mark administratively disabled")
		capacity = fs.Float64("capacity", 0.75, "capacity constraint used to validate the resulting state")
		out      = fs.String("o", "", "output state file (default stdout)")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	topo := load(fs.Arg(0))
	net, err := corropt.NewNetwork(topo, *capacity)
	if err != nil {
		fatal(err)
	}
	if *disable != "" {
		for _, tok := range strings.Split(*disable, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fatal(fmt.Errorf("bad link id %q: %w", tok, err))
			}
			if id < 0 || id >= topo.NumLinks() {
				fatal(fmt.Errorf("link id %d out of range [0,%d)", id, topo.NumLinks()))
			}
			net.Disable(topology.LinkID(id))
		}
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := net.SaveState(w); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "state: %d of %d links disabled; constraint feasible: %v\n",
		net.NumDisabled(), topo.NumLinks(), net.Feasible(nil))
}

func pow(b, e float64) float64 { return math.Pow(b, e) }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "corropt-topo:", err)
	os.Exit(1)
}
