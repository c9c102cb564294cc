// Quickstart: build a small Clos data center, wire up the CorrOpt engine,
// and walk through the mitigation loop — corruption reports answered by the
// fast checker, a capacity-blocked link, and the optimizer picking it up
// once a repair frees headroom.
package main

import (
	"fmt"
	"log"

	"corropt"
)

func main() {
	// A 2-pod Clos: each ToR has 4 uplinks, so a 75% capacity constraint
	// lets CorrOpt disable exactly one uplink per ToR.
	topo, err := corropt.NewClos(corropt.ClosConfig{
		Pods: 2, ToRsPerPod: 4, AggsPerPod: 4,
		Spines: 8, SpineUplinksPerAgg: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("topology: %d switches, %d links, %d ToR→spine paths per ToR\n",
		topo.NumSwitches(), topo.NumLinks(),
		corropt.NewPathCounter(topo).Total()[topo.ToRs()[0]])

	net, err := corropt.NewNetwork(topo, 0.75)
	if err != nil {
		log.Fatal(err)
	}
	engine := corropt.NewEngine(net, corropt.EngineConfig{})

	// A ToR's first uplink starts corrupting at 1e-3 (0.1% loss — enough
	// to halve TCP throughput per the papers cited in §1).
	tor := topo.ToRs()[0]
	up := topo.Switch(tor).Uplinks
	report := func(l corropt.LinkID, rate float64) {
		d := engine.ReportCorruption(l, rate)
		if d.Disabled {
			fmt.Printf("link %-3d rate %.0e -> disabled\n", l, rate)
		} else {
			fmt.Printf("link %-3d rate %.0e -> kept active (%s)\n", l, rate, d.Reason())
		}
	}
	report(up[0], 1e-3)

	// A second uplink of the same ToR corrupts harder — but disabling it
	// too would leave the ToR below 75% of its spine paths, so the fast
	// checker refuses.
	report(up[1], 1e-2)
	fmt.Printf("worst ToR path fraction: %.2f (constraint 0.75)\n", net.WorstToRFraction())

	// The first link is repaired and comes back. The optimizer now runs
	// globally and swaps the worse link in.
	newly := engine.LinkRepaired(up[0])
	fmt.Printf("link %d repaired; optimizer disabled %d link(s): %v\n", up[0], len(newly), newly)
	fmt.Printf("total penalty now: %.3g (was %.3g with the 1e-2 link active)\n",
		net.TotalPenalty(corropt.LinearPenalty), 1e-2)
}
