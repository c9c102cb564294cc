package experiments

import (
	"fmt"
	"math"

	"corropt/internal/core"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

func init() {
	register("tiers", "§5.1: the switch-local gap widens with more tiers (sc = c^(1/r))", analytic(tiers))
}

// tiers reproduces §5.1's generalization: "with r tiers above the
// ToR-level, a switch-local algorithm needs to keep c^(1/r) fraction of
// uplinks active" — so as data centers grow taller, the safe switch-local
// threshold approaches 1 and its disable budget approaches zero, while
// CorrOpt's exact path counting is unaffected. We build 2-, 3- and 4-stage
// fabrics of comparable size, corrupt the same fraction of links, and
// compare what each method can disable.
func tiers(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "tiers",
		Title:  "Disable capability vs fabric depth at c=75%",
		Header: []string{"tiers_r", "sc=c^(1/r)", "budget_8uplink_switch", "switch_local_disabled", "corropt_disabled", "corrupting_links"},
	}
	const c = 0.75
	rng := rngutil.New(cfg.Seed).Split("tiers")

	// Same per-switch radix (8 uplinks everywhere) at every depth, so the
	// only variable is r.
	builds := []struct {
		r      int
		widths []int
		fanout []int
	}{
		{1, []int{32, 16}, []int{8}},
		{2, []int{32, 16, 16}, []int{8, 8}},
		{3, []int{32, 16, 16, 8}, []int{8, 8, 8}},
	}
	for _, b := range builds {
		topo, err := topology.NewMultiTier(b.widths, b.fanout)
		if err != nil {
			return nil, err
		}
		corruptFrac := 0.15
		nCorrupt := int(float64(topo.NumLinks()) * corruptFrac)
		seen := make(map[topology.LinkID]bool)
		var corrupting []topology.LinkID
		localRng := rng.SplitIndex("faults", b.r)
		for len(corrupting) < nCorrupt {
			l := topology.LinkID(localRng.Intn(topo.NumLinks()))
			if !seen[l] {
				seen[l] = true
				corrupting = append(corrupting, l)
			}
		}
		setup := func() (*core.Network, error) {
			net, err := core.NewNetwork(topo, c)
			if err != nil {
				return nil, err
			}
			for _, l := range corrupting {
				net.SetCorruption(l, math.Pow(10, localRng.Range(-5, -3)))
			}
			return net, nil
		}

		sc := math.Pow(c, 1/float64(b.r))
		budget := int(8 * (1 - sc))

		netSL, err := setup()
		if err != nil {
			return nil, err
		}
		sl, err := core.NewSwitchLocal(netSL, c)
		if err != nil {
			return nil, err
		}
		slDisabled := len(sl.Sweep(1e-6))

		netCO, err := setup()
		if err != nil {
			return nil, err
		}
		opt := core.NewOptimizer(netCO, core.LinearPenalty)
		coDisabled, _ := opt.Run(1e-6)

		r.AddRow(fmt.Sprintf("%d", b.r), fmt.Sprintf("%.4f", sc), fmt.Sprintf("%d", budget),
			fmt.Sprintf("%d", slDisabled), fmt.Sprintf("%d", len(coDisabled)),
			fmt.Sprintf("%d", len(corrupting)))
	}
	r.AddNote("as r grows, sc = 0.75^(1/r) climbs toward 1 and switch-local's per-switch budget shrinks; CorrOpt's global counting is depth-independent")
	return r, nil
}
