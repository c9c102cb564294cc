package experiments

import (
	"fmt"
	"math"

	"corropt/internal/core"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

func init() {
	register("hetero", "§5.1: per-ToR capacity requirements cripple switch-local checking but not CorrOpt", analytic(hetero))
}

// hetero reproduces §5.1's second limitation of switch-local checking: "if
// one ToR has a high capacity requirement c', all upstream switches need to
// keep c'^(1/r) uplinks active. A switch-local checker may not be able to
// disable a single link in extreme cases." CorrOpt's per-ToR constraints
// localize the demanding ToR's requirement to its own upstream links.
func hetero(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "hetero",
		Title:  "Heterogeneous ToR requirements: disabled links and penalty per method",
		Header: []string{"method", "links_disabled", "remaining_penalty", "constraints_met"},
	}
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 6, AggsPerPod: 8,
		Spines: 16, SpineUplinksPerAgg: 8, BreakoutSize: 4,
	})
	if err != nil {
		return nil, err
	}
	rng := rngutil.New(cfg.Seed).Split("hetero")

	// Most ToRs demand 50% of their paths; a handful of storage-heavy ToRs
	// demand 90% (traffic demand differs across ToRs, §5.1 citing [17]).
	const baseC, hotC = 0.5, 0.9
	var demanding []topology.SwitchID
	setup := func() (*core.Network, []topology.LinkID, error) {
		net, err := core.NewNetwork(topo, baseC)
		if err != nil {
			return nil, nil, err
		}
		demanding = demanding[:0]
		for i, tor := range topo.ToRs() {
			if i%12 == 0 { // ~8% of ToRs
				if err := net.SetToRConstraint(tor, hotC); err != nil {
					return nil, nil, err
				}
				demanding = append(demanding, tor)
			}
		}
		// 10% of links corrupt, scattered (weak locality).
		seen := make(map[topology.LinkID]bool)
		var corrupting []topology.LinkID
		localRng := rng.Split("faults")
		for len(corrupting) < topo.NumLinks()/10 {
			l := topology.LinkID(localRng.Intn(topo.NumLinks()))
			if !seen[l] {
				seen[l] = true
				net.SetCorruption(l, math.Pow(10, localRng.Range(-5, -2)))
				corrupting = append(corrupting, l)
			}
		}
		return net, corrupting, nil
	}

	check := func(net *core.Network) string {
		if len(net.ViolatedToRs(nil)) == 0 {
			return "true"
		}
		return "VIOLATED"
	}

	// Switch-local must satisfy the most demanding ToR everywhere: sc =
	// hotC^(1/r) network-wide, which strands nearly every corrupting link.
	{
		net, _, err := setup()
		if err != nil {
			return nil, err
		}
		sl, err := core.NewSwitchLocal(net, hotC)
		if err != nil {
			return nil, err
		}
		disabled := sl.Sweep(1e-6)
		r.AddRow(fmt.Sprintf("switch-local sc=%.2f^(1/2) global", hotC),
			fmt.Sprintf("%d", len(disabled)), fmtF(net.TotalPenalty(core.LinearPenalty)), check(net))
	}
	// Switch-local tuned only for the common 50% requirement meets the
	// demanding ToRs' constraints only by luck — it does not even know
	// about them.
	{
		net, _, err := setup()
		if err != nil {
			return nil, err
		}
		sl, err := core.NewSwitchLocal(net, baseC)
		if err != nil {
			return nil, err
		}
		disabled := sl.Sweep(1e-6)
		r.AddRow(fmt.Sprintf("switch-local sc=%.2f^(1/2) (ignores hot ToRs)", baseC),
			fmt.Sprintf("%d", len(disabled)), fmtF(net.TotalPenalty(core.LinearPenalty)), check(net))
	}
	// CorrOpt honors each ToR's own constraint.
	{
		net, _, err := setup()
		if err != nil {
			return nil, err
		}
		fc := core.NewFastChecker(net)
		disabled := fc.Sweep(1e-6)
		r.AddRow("corropt fast checker (per-ToR constraints)",
			fmt.Sprintf("%d", len(disabled)), fmtF(net.TotalPenalty(core.LinearPenalty)), check(net))
	}
	{
		net, _, err := setup()
		if err != nil {
			return nil, err
		}
		opt := core.NewOptimizer(net, core.LinearPenalty)
		disabled, _ := opt.Run(1e-6)
		r.AddRow("corropt optimizer (per-ToR constraints)",
			fmt.Sprintf("%d", len(disabled)), fmtF(net.TotalPenalty(core.LinearPenalty)), check(net))
	}
	r.AddNote("%d of %d ToRs demand %.0f%% of their paths, the rest %.0f%%; corruption on %d links",
		len(demanding), len(topo.ToRs()), hotC*100, baseC*100, topo.NumLinks()/10)
	r.AddNote("paper §5.1: a single high-requirement ToR forces a global switch-local threshold that 'may not be able to disable a single link'; CorrOpt localizes it")
	return r, nil
}
