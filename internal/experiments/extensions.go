package experiments

import (
	"fmt"
	"time"

	"corropt/internal/core"
	"corropt/internal/sim"
	"corropt/internal/stats"
)

func init() {
	register("ext8", "§8 future extensions: drain-instead-of-disable and repair collateral", ext8)
}

// ext8 quantifies the two §8 extensions this implementation includes:
//
//   - Drain mode ("removing traffic instead of disabling links"): failed
//     repairs are detected with test traffic instead of by re-exposing
//     applications, which removes the corruption bursts of the Figure 12
//     enable→corrupt→re-disable cycle. The benefit grows with the
//     detection latency and with the repair failure rate.
//
//   - Repair collateral ("accounting for the impact of repair"): repairing
//     one link of a breakout cable takes its healthy siblings down for the
//     service window, costing capacity that the basic model ignores.
func ext8(cfg Config, batch scaleDCNs) (*plan, error) {
	topo, err := batch.get(cfg.Scale)
	if err != nil {
		return nil, err
	}
	e, err := evalTrace(topo, cfg.Seed, "ext8", cfg.Scale)
	if err != nil {
		return nil, err
	}
	// The four §8 variants replay the same trace independently; fan them
	// out and emit rows in the fixed variant order.
	variants := []struct {
		name              string
		drain, collateral bool
	}{
		{"baseline (enable/disable cycle)", false, false},
		{"drain mode", true, false},
		{"repair collateral modeled", false, true},
		{"drain + collateral", true, true},
	}
	replays := make([]sim.Replay, len(variants))
	for i, v := range variants {
		replays[i] = e.replay(sim.Config{
			Policy:         sim.PolicyCorrOpt,
			Capacity:       0.75,
			FixedAccuracy:  0.5, // frequent repair failures make the cycle visible
			DetectionDelay: 15 * time.Minute,
			RepairConfig:   core.RepairConfig{DrainMode: v.drain, RepairCollateral: v.collateral},
			Seed:           cfg.Seed,
		})
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "ext8",
			Title:  "§8 extensions: drain mode and repair collateral",
			Header: []string{"variant", "integrated_penalty", "tickets", "mean_tor_fraction", "min_worst_tor_fraction"},
		}
		row := func(name string, res *sim.Result) {
			var fracs []float64
			worst := 1.0
			for _, smp := range res.Samples {
				fracs = append(fracs, smp.MeanToRFraction)
				if smp.WorstToRFraction < worst {
					worst = smp.WorstToRFraction
				}
			}
			r.AddRow(name, fmtF(res.IntegratedPenalty), fmt.Sprintf("%d", res.TicketsOpened),
				fmtF(stats.Mean(fracs)), fmtF(worst))
		}
		for i, v := range variants {
			row(v.name, results[i])
		}
		base, drained := results[0], results[1]
		if base.IntegratedPenalty > 0 {
			r.AddNote("drain mode removes the failed-repair re-exposure: penalty ratio %.3g vs the enable/disable cycle", drained.IntegratedPenalty/base.IntegratedPenalty)
		}
		r.AddNote("collateral repair lowers the mean ToR path fraction by taking healthy breakout siblings down during service windows")
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}
