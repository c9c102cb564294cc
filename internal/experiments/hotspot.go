package experiments

import (
	"fmt"

	"corropt/internal/core"
	"corropt/internal/rngutil"
	"corropt/internal/routing"
	"corropt/internal/topology"
)

func init() {
	register("hotspot", "§5.1 motivation: blind disabling creates hotspots; capacity constraints prevent them", analytic(hotspot))
}

// hotspot quantifies the premise of CorrOpt's capacity constraints: "in the
// extreme cases, especially because of the locality of corrupting links,
// blindly disabling links can create hotspots, and, hence, engender heavy
// congestion losses; it may even partition the network" (§5.1). We route a
// uniform all-to-all ECMP demand over a pod hit by clustered corruption and
// compare the maximum link load (normalized to the healthy baseline) under
// three mitigation stances: disable everything blindly, CorrOpt with a 75%
// capacity constraint, and the conservative switch-local rule.
func hotspot(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "hotspot",
		Title:  "Max ECMP link load after disabling clustered corrupting links",
		Header: []string{"strategy", "links_disabled", "max_load_vs_healthy", "unroutable_demand", "worst_tor_fraction"},
	}
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 4, ToRsPerPod: 6, AggsPerPod: 4,
		Spines: 16, SpineUplinksPerAgg: 4, BreakoutSize: 4,
	})
	if err != nil {
		return nil, err
	}
	rng := rngutil.New(cfg.Seed).Split("hotspot")

	// Clustered corruption: one pod's ToRs lose most of their uplinks to
	// a shared backplane problem — the weak-locality tail §3 measures and
	// the exact case where blind disabling is dangerous.
	var corrupting []topology.LinkID
	pod0 := -1
	for _, tor := range topo.ToRs() {
		sw := topo.Switch(tor)
		if pod0 == -1 {
			pod0 = sw.Pod
		}
		if sw.Pod != pod0 {
			continue
		}
		up := topo.Uplinks(tor)
		perm := rng.Perm(len(up))
		for i := 0; i < 3; i++ { // 3 of 4 uplinks corrupt
			corrupting = append(corrupting, up[perm[i]])
		}
	}

	router := routing.New(topo)
	demands := routing.UniformAllToAll(topo, 1)
	healthy, err := router.Route(demands, nil)
	if err != nil {
		return nil, err
	}
	healthyMax, _, _ := healthy.MaxLoad()

	type strategy struct {
		name string
		run  func(net *core.Network) int
	}
	strategies := []strategy{
		{"healthy baseline", func(net *core.Network) int { return 0 }},
		{"blind (disable all corrupting)", func(net *core.Network) int {
			for _, l := range corrupting {
				net.Disable(l)
			}
			return len(corrupting)
		}},
		{"corropt c=75%", func(net *core.Network) int {
			opt := core.NewOptimizer(net, core.LinearPenalty)
			disabled, _ := opt.Run(1e-6)
			return len(disabled)
		}},
		{"switch-local c=75%", func(net *core.Network) int {
			sl, err := core.NewSwitchLocal(net, 0.75)
			if err != nil {
				return 0
			}
			return len(sl.Sweep(1e-6))
		}},
	}
	for _, s := range strategies {
		net, err := core.NewNetwork(topo, 0.75)
		if err != nil {
			return nil, err
		}
		for _, l := range corrupting {
			net.SetCorruption(l, 1e-3)
		}
		n := s.run(net)
		loads, err := router.Route(demands, net.DisabledFunc())
		if err != nil {
			return nil, err
		}
		maxLoad, _, _ := loads.MaxLoad()
		r.AddRow(s.name, fmt.Sprintf("%d", n),
			fmtF(maxLoad/healthyMax), fmtF(loads.Unroutable),
			fmtF(net.WorstToRFraction()))
	}
	r.AddNote("blind disabling multiplies the hottest link's load (trading corruption for congestion); CorrOpt's capacity constraint bounds the concentration while still disabling most corrupting links")
	r.AddNote("uses %d corrupting links clustered in one pod of a %d-link fabric; ECMP valley-free routing of uniform all-to-all demand", len(corrupting), topo.NumLinks())
	return r, nil
}
