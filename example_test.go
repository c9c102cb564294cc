package corropt_test

import (
	"fmt"

	"corropt"
)

// ExampleNewEngine shows the core mitigation loop: a corruption report
// answered by the fast checker, a capacity refusal, and the optimizer
// reacting to a repair.
func ExampleNewEngine() {
	topo, _ := corropt.NewClos(corropt.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 4, Spines: 4, SpineUplinksPerAgg: 1,
	})
	net, _ := corropt.NewNetwork(topo, 0.5) // every ToR keeps ≥50% of its paths
	engine := corropt.NewEngine(net, corropt.EngineConfig{})

	up := topo.Uplinks(topo.ToRs()[0])
	d1 := engine.ReportCorruption(up[0], 1e-3)
	d2 := engine.ReportCorruption(up[1], 1e-2)
	d3 := engine.ReportCorruption(up[2], 1e-4)
	fmt.Println("disabled:", d1.Disabled, d2.Disabled, d3.Disabled)

	// Repairing the first link frees capacity; the optimizer swaps in the
	// worst remaining corrupting link.
	newly := engine.LinkRepaired(up[0])
	fmt.Println("optimizer disabled", len(newly), "more")
	// Output:
	// disabled: true true false
	// optimizer disabled 1 more
}

// Example_quickstart walks the mitigation loop on a small Clos data center:
// corruption reports answered by the fast checker, a capacity-blocked link,
// and the optimizer picking it up once a repair frees headroom.
func Example_quickstart() {
	// A 2-pod Clos: each ToR has 4 uplinks, so a 75% capacity constraint
	// lets CorrOpt disable exactly one uplink per ToR.
	topo, err := corropt.NewClos(corropt.ClosConfig{
		Pods: 2, ToRsPerPod: 4, AggsPerPod: 4,
		Spines: 8, SpineUplinksPerAgg: 4,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("topology: %d switches, %d links, %d ToR→spine paths per ToR\n",
		topo.NumSwitches(), topo.NumLinks(),
		corropt.NewPathCounter(topo).Total()[topo.ToRs()[0]])

	net, err := corropt.NewNetwork(topo, 0.75)
	if err != nil {
		panic(err)
	}
	engine := corropt.NewEngine(net, corropt.EngineConfig{})

	// A ToR's first uplink starts corrupting at 1e-3 (0.1% loss — enough
	// to halve TCP throughput per the papers cited in §1).
	up := topo.Uplinks(topo.ToRs()[0])
	report := func(l corropt.LinkID, rate float64) {
		d := engine.ReportCorruption(l, rate)
		if d.Disabled {
			fmt.Printf("link %d rate %.0e -> disabled\n", l, rate)
		} else {
			fmt.Printf("link %d rate %.0e -> kept active (%s)\n", l, rate, d.Reason())
		}
	}
	report(up[0], 1e-3)

	// A second uplink of the same ToR corrupts harder — but disabling it
	// too would leave the ToR below 75% of its spine paths, so the fast
	// checker refuses.
	report(up[1], 1e-2)
	fmt.Printf("worst ToR path fraction: %.2f (constraint 0.75)\n", net.WorstToRFraction())

	// The first link is repaired and comes back. The blocked link now passes
	// the fast check on its own, so the optimizer runs and swaps it in.
	newly := engine.LinkRepaired(up[0])
	fmt.Printf("link %d repaired; optimizer disabled %v\n", up[0], newly)
	fmt.Printf("total penalty now: %.3g\n", net.TotalPenalty(corropt.LinearPenalty))
	// Output:
	// topology: 24 switches, 64 links, 16 ToR→spine paths per ToR
	// link 0 rate 1e-03 -> disabled
	// link 1 rate 1e-02 -> kept active (capacity constraints forbid disabling)
	// worst ToR path fraction: 0.75 (constraint 0.75)
	// link 0 repaired; optimizer disabled [1]
	// total penalty now: 0
}

// ExampleRecommend shows Algorithm 1 mapping optical symptoms to repairs.
func ExampleRecommend() {
	tech := corropt.DefaultTechnologies()[1] // 40G-LR4

	// One starved receiver with healthy transmitters: dirt on a connector.
	d := corropt.Diagnostics{
		HasOptics: true,
		Rx1:       tech.RxThreshold - 3,
		Rx2:       tech.NominalTx - 3,
		Tx2:       tech.NominalTx,
		Tech:      tech,
	}
	fmt.Println(corropt.Recommend(d))

	// Both receivers starved: the fiber itself.
	d.Rx2 = tech.RxThreshold - 2
	fmt.Println(corropt.Recommend(d))
	// Output:
	// clean-fiber
	// replace-fiber
}

// ExampleNewPathCounter shows the valley-free capacity metric CorrOpt's
// constraints are built on.
func ExampleNewPathCounter() {
	topo, _ := corropt.NewClos(corropt.ClosConfig{
		Pods: 1, ToRsPerPod: 1, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2,
	})
	pc := corropt.NewPathCounter(topo)
	tor := topo.ToRs()[0]
	fmt.Println("total paths:", pc.Total()[tor])

	// Disabling one of the ToR's two uplinks halves them.
	dead := topo.Uplinks(tor)[0]
	counts := pc.Count(func(l corropt.LinkID) bool { return l == dead })
	fmt.Println("after one uplink down:", counts[tor])
	// Output:
	// total paths: 4
	// after one uplink down: 2
}

// ExampleBuildGadget shows the Appendix A reduction solving 3-SAT with the
// optimizer.
func ExampleBuildGadget() {
	f := corropt.Formula{
		NumVars: 2,
		Clauses: []corropt.Clause{{1, 2, 2}, {-1, 2, 2}},
	}
	g, _ := corropt.BuildGadget(f)
	n := g.MaxDisabled()
	fmt.Println("disabled", n, "of", len(g.FaultyLinks), "faulty links; satisfiable:", n == f.NumVars)
	// Output:
	// disabled 2 of 4 faulty links; satisfiable: true
}
