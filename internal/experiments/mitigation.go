package experiments

import (
	"fmt"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/sim"
	"corropt/internal/stats"
	"corropt/internal/topology"
)

func init() {
	register("fig10", "switch-local vs optimal disabling on the five-uplink example", analytic(fig10))
	register("fig11", "topology pruning example", analytic(fig11))
	register("fig14", "total penalty per second over time: switch-local vs CorrOpt (c=75%)", fig14)
	register("fig1516", "worst ToR's available-path fraction at c=75% and c=50%", fig1516)
	register("fig17", "integrated penalty ratio CorrOpt/switch-local across capacity constraints", fig17)
	register("fig18", "optimizer gain over fast checker alone", fig18)
	register("fig19", "impact of repair accuracy (80% vs 50%) on penalty", fig19)
	register("sec72", "repair recommendation accuracy: legacy vs deployed vs followed", sec72)
	register("sec73", "combined impact: losses and capacity cost vs current practice", sec73)
}

// evalHorizon is the trace window of §7.1 (Oct–Dec 2016, three months).
func evalHorizon(scale Scale) time.Duration {
	if scale == ScaleSmall {
		return 30 * 24 * time.Hour
	}
	return 90 * 24 * time.Hour
}

// fig10 reproduces Figure 10 exactly: ToR T with five uplinks to
// aggregation switches A–E (25 spine paths), 16 corrupting links, capacity
// constraint 60%. The naive switch-local mapping (sc=c) violates the
// constraint; the safe mapping (sc=√c) disables only a few links; the
// optimum disables 12.
func fig10(Config) (*Report, error) {
	r := &Report{
		ID:     "fig10",
		Title:  "Switch-local checking vs the optimal solution (Figure 10 example)",
		Header: []string{"method", "links_disabled", "tor_path_fraction", "constraint_met"},
	}
	build := func() (*core.Network, error) {
		b := topology.NewBuilder()
		spines := make([]topology.SwitchID, 25)
		for i := range spines {
			spines[i] = b.AddSwitch(fmt.Sprintf("s%d", i), 2, -1)
		}
		aggs := make([]topology.SwitchID, 5)
		for i := range aggs {
			aggs[i] = b.AddSwitch(string(rune('A'+i)), 1, 0)
		}
		tor := b.AddSwitch("T", 0, 0)
		var corrupting []topology.LinkID
		torUp := make([]topology.LinkID, 5)
		for i, agg := range aggs {
			torUp[i] = b.AddLink(tor, agg, -1)
			for j := 0; j < 5; j++ {
				l := b.AddLink(agg, spines[i*5+j], -1)
				if i < 2 { // all of A's and B's spine uplinks corrupt
					corrupting = append(corrupting, l)
				} else if (i == 2 && j < 2) || ((i == 3 || i == 4) && j == 0) {
					corrupting = append(corrupting, l) // four more under C, D, E
				}
			}
		}
		corrupting = append(corrupting, torUp[0], torUp[1])
		topo, err := b.Build()
		if err != nil {
			return nil, err
		}
		net, err := core.NewNetwork(topo, 0.60)
		if err != nil {
			return nil, err
		}
		for _, l := range corrupting {
			net.SetCorruption(l, 1e-3)
		}
		return net, nil
	}

	type method struct {
		name string
		run  func(net *core.Network) int
	}
	for _, m := range []method{
		{"switch-local sc=c (fig 10a)", func(net *core.Network) int {
			sl, _ := core.NewSwitchLocalRaw(net, 0.60)
			return len(sl.Sweep(1e-6))
		}},
		{"switch-local sc=sqrt(c) (fig 10b)", func(net *core.Network) int {
			sl, _ := core.NewSwitchLocal(net, 0.60)
			return len(sl.Sweep(1e-6))
		}},
		{"corropt optimizer (fig 10c)", func(net *core.Network) int {
			opt := core.NewOptimizer(net, core.LinearPenalty)
			disabled, _ := opt.Run(1e-6)
			return len(disabled)
		}},
	} {
		net, err := build()
		if err != nil {
			return nil, err
		}
		n := m.run(net)
		frac := net.WorstToRFraction()
		r.AddRow(m.name, fmt.Sprintf("%d", n), fmtF(frac), fmt.Sprintf("%v", frac >= 0.60))
	}
	r.AddNote("paper: (a) disables 8 but leaves T with 9/25=36%% of paths; (b) disables 4; (c) the optimum disables 12 at exactly 60%%")
	return r, nil
}

// fig11 reproduces the pruning example of Figure 11: with c=50% only ToR J
// is endangered when all four corrupting links go down, so the other three
// are disabled unconditionally and the search only considers J's uplinks.
func fig11(Config) (*Report, error) {
	r := &Report{
		ID:     "fig11",
		Title:  "Topology pruning (Figure 11 example)",
		Header: []string{"quantity", "value"},
	}
	b := topology.NewBuilder()
	s1 := b.AddSwitch("S1", 2, -1)
	s2 := b.AddSwitch("S2", 2, -1)
	aggA := b.AddSwitch("A", 1, 0)
	aggB := b.AddSwitch("B", 1, 0)
	links := map[string]topology.LinkID{}
	for _, name := range []string{"G", "H", "I", "J"} {
		tor := b.AddSwitch(name, 0, 0)
		links[name+"-A"] = b.AddLink(tor, aggA, -1)
		links[name+"-B"] = b.AddLink(tor, aggB, -1)
	}
	b.AddLink(aggA, s1, -1)
	b.AddLink(aggB, s2, -1)
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	net, err := core.NewNetwork(topo, 0.5)
	if err != nil {
		return nil, err
	}
	for _, n := range []string{"G-A", "H-A", "I-B", "J-A", "J-B"} {
		net.SetCorruption(links[n], 1e-3)
	}
	opt := core.NewOptimizer(net, core.LinearPenalty)
	disabled, st := opt.Run(1e-6)
	r.AddRow("corrupting links", "5 (G-A, H-A, I-B, J-A, J-B)")
	r.AddRow("endangered ToRs", "1 (J)")
	r.AddRow("safely disabled by pruning", fmt.Sprintf("%d", st.SafelyDisabled))
	r.AddRow("segments searched", fmt.Sprintf("%d", st.Segments))
	r.AddRow("total disabled", fmt.Sprintf("%d", len(disabled)))
	r.AddRow("worst ToR fraction", fmtF(net.WorstToRFraction()))
	r.AddNote("paper: three links outside J's upstream are disabled without search; J keeps one of its two uplinks")
	return r, nil
}

// fig14 reproduces Figure 14: total penalty per second over the trace for
// switch-local and CorrOpt at c=75%. The switch-local line stays flat and
// high (a persistent set of corrupting links it cannot disable); CorrOpt's
// hugs zero.
func fig14(cfg Config, batch scaleDCNs) (*plan, error) {
	dcns, err := evalDCNs(cfg, batch, "fig14")
	if err != nil {
		return nil, err
	}
	// One replay per DCN × policy; replays of the same DCN share its
	// immutable topology and trace.
	var replays []sim.Replay
	for _, d := range dcns {
		for _, p := range []sim.PolicyKind{sim.PolicySwitchLocal, sim.PolicyCorrOpt} {
			replays = append(replays, d.policyReplay(p, 0.75, 0.8, cfg.Seed))
		}
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "fig14",
			Title:  "Total penalty per second over time (c=75%)",
			Header: []string{"dcn", "hour", "switch_local", "corropt"},
		}
		for i, d := range dcns {
			scale, topo := d.scale, d.topo
			sl, co := results[2*i], results[2*i+1]
			step := len(co.Samples) / 120
			if step == 0 {
				step = 1
			}
			for i := 0; i < len(co.Samples) && i < len(sl.Samples); i += step {
				r.AddRow(scale.String(), fmt.Sprintf("%d", int(co.Samples[i].At/time.Hour)),
					fmtF(sl.Samples[i].Penalty), fmtF(co.Samples[i].Penalty))
			}
			r.AddNote("%s DCN (%d links): integrated penalty switch-local %.4g vs corropt %.4g",
				scale, topo.NumLinks(), sl.IntegratedPenalty, co.IntegratedPenalty)
		}
		r.AddNote("paper: switch-local is flat and orders of magnitude above CorrOpt")
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}

// evalScales picks the DCN sizes to sweep: the paper uses its medium and
// large DCN; at ScaleSmall we run the small fabric only.
func evalScales(s Scale) []Scale {
	if s == ScaleSmall {
		return []Scale{ScaleSmall}
	}
	return []Scale{ScaleMedium, ScaleLarge}
}

// fig1516 reproduces Figures 15 and 16: the worst ToR's fraction of
// available spine paths over time under both methods, at c=75% and c=50%.
// CorrOpt rides the capacity limit when it needs to; switch-local stays
// needlessly high because it cannot disable enough links.
func fig1516(cfg Config, batch scaleDCNs) (*plan, error) {
	dcns, err := evalDCNs(cfg, batch, "fig1516")
	if err != nil {
		return nil, err
	}
	capacities := []float64{0.75, 0.50}
	// DCN × capacity × policy replays, all independent: fan the whole
	// grid out and reassemble in order.
	var replays []sim.Replay
	for _, d := range dcns {
		for _, c := range capacities {
			for _, p := range []sim.PolicyKind{sim.PolicySwitchLocal, sim.PolicyCorrOpt} {
				replays = append(replays, d.policyReplay(p, c, 0.8, cfg.Seed))
			}
		}
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "fig1516",
			Title:  "Worst ToR's available-path fraction over time",
			Header: []string{"dcn", "capacity", "hour", "switch_local", "corropt"},
		}
		for di, d := range dcns {
			scale := d.scale
			for ci, c := range capacities {
				base := 2 * (di*len(capacities) + ci)
				sl, co := results[base], results[base+1]
				step := len(co.Samples) / 60
				if step == 0 {
					step = 1
				}
				worstCo, worstSl := 1.0, 1.0
				for i := 0; i < len(co.Samples) && i < len(sl.Samples); i += step {
					r.AddRow(scale.String(), fmt.Sprintf("%.0f%%", 100*c),
						fmt.Sprintf("%d", int(co.Samples[i].At/time.Hour)),
						fmtF(sl.Samples[i].WorstToRFraction), fmtF(co.Samples[i].WorstToRFraction))
				}
				for _, s := range co.Samples {
					if s.WorstToRFraction < worstCo {
						worstCo = s.WorstToRFraction
					}
				}
				for _, s := range sl.Samples {
					if s.WorstToRFraction < worstSl {
						worstSl = s.WorstToRFraction
					}
				}
				r.AddNote("%s c=%.0f%%: minimum worst-ToR fraction corropt %.3f (rides the limit), switch-local %.3f", scale, 100*c, worstCo, worstSl)
			}
		}
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}

// fig17 reproduces Figure 17: the integrated penalty of CorrOpt divided by
// switch-local's, for capacity constraints from lax to demanding. At 25%
// both disable everything (ratio 1); at 50–75% CorrOpt wins by orders of
// magnitude.
func fig17(cfg Config, batch scaleDCNs) (*plan, error) {
	dcns, err := evalDCNs(cfg, batch, "fig17")
	if err != nil {
		return nil, err
	}
	capacities := []float64{0.25, 0.50, 0.60, 0.75}
	// The full capacity sweep — DCN × constraint × policy — is the classic
	// embarrassingly-parallel replay grid; fan it out and reassemble.
	var replays []sim.Replay
	for _, d := range dcns {
		for _, c := range capacities {
			for _, p := range []sim.PolicyKind{sim.PolicySwitchLocal, sim.PolicyCorrOpt} {
				replays = append(replays, d.policyReplay(p, c, 0.8, cfg.Seed))
			}
		}
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "fig17",
			Title:  "Integrated penalty ratio CorrOpt/switch-local vs capacity constraint",
			Header: []string{"dcn", "capacity", "ratio", "corropt_penalty", "switch_local_penalty"},
		}
		for di, d := range dcns {
			scale := d.scale
			for ci, c := range capacities {
				base := 2 * (di*len(capacities) + ci)
				sl, co := results[base], results[base+1]
				ratio := "0"
				if sl.IntegratedPenalty > 0 {
					ratio = fmtF(co.IntegratedPenalty / sl.IntegratedPenalty)
				}
				r.AddRow(scale.String(), fmt.Sprintf("%.0f%%", 100*c), ratio,
					fmtF(co.IntegratedPenalty), fmtF(sl.IntegratedPenalty))
			}
		}
		r.AddNote("paper: ratio ≈ 1 at c=25%%; drops to ~0 on the medium DCN at 50%%; 1e-3 to 1e-6 at 75%%")
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}

// fig18 reproduces Figure 18: how much the optimizer adds on top of the
// fast checker — hourly penalty ratio over a month and its CDF. Most of the
// time the fast checker alone is already optimal; occasionally the
// optimizer cuts the penalty by an order of magnitude or more.
func fig18(cfg Config, batch scaleDCNs) (*plan, error) {
	scale := cfg.Scale
	if scale != ScaleSmall {
		scale = ScaleLarge // the paper isolates this on its large DCN
	}
	topo, err := batch.get(scale)
	if err != nil {
		return nil, err
	}
	e, err := evalTrace(topo, cfg.Seed, "fig18", scale)
	if err != nil {
		return nil, err
	}
	replays := []sim.Replay{
		e.policyReplay(sim.PolicyCorrOpt, 0.75, 0.8, cfg.Seed),
		e.policyReplay(sim.PolicyFastOnly, 0.75, 0.8, cfg.Seed),
	}
	return &plan{replays: replays, finish: func(results []*sim.Result) (*Report, error) {
		return fig18Report(results[0], results[1]), nil
	}}, nil
}

// fig18Report compares the full optimizer's replay co with the fast
// checker's fo.
func fig18Report(co, fo *sim.Result) *Report {
	r := &Report{
		ID:     "fig18",
		Title:  "Optimizer gain over fast checker alone",
		Header: []string{"series", "x", "y"},
	}
	var ratios []float64
	n := len(co.Samples)
	if len(fo.Samples) < n {
		n = len(fo.Samples)
	}
	for i := 0; i < n; i++ {
		fc := fo.Samples[i].Penalty
		full := co.Samples[i].Penalty
		var ratio float64
		switch {
		case fc == 0 && full == 0:
			ratio = 1
		case fc == 0:
			ratio = 1 // optimizer can only help; treat as parity
		default:
			ratio = full / fc
		}
		ratios = append(ratios, ratio)
		if i%24 == 0 {
			r.AddRow("ratio-over-time", fmt.Sprintf("%d", int(co.Samples[i].At/time.Hour)), fmtF(ratio))
		}
	}
	for _, pt := range stats.NewCDF(ratios).Points(25) {
		r.AddRow("ratio-cdf", fmtF(pt[0]), fmtF(pt[1]))
	}
	atParity := 0
	bigGain := 0
	for _, v := range ratios {
		if v > 0.99 {
			atParity++
		}
		if v <= 0.1 {
			bigGain++
		}
	}
	r.AddNote("parity share %.0f%% (paper ~90%%); ≥10x gain share %.0f%% (paper ~7%%)",
		100*float64(atParity)/float64(len(ratios)), 100*float64(bigGain)/float64(len(ratios)))
	r.AddNote("on a symmetric Clos with uniform ToR thresholds, the fast checker's greedy sweep (worst link first, exact path counts) is provably near-optimal, so parity dominates; the optimizer's episodic gains in the paper come from asymmetric failure structures — reproduced here by fig10 (greedy-unfriendly example) and thm51 (worst case)")
	return r
}

// fig19 reproduces Figure 19: CorrOpt's repair recommendations also lower
// corruption losses, because faster repairs put healthy links back sooner,
// letting more corrupting links be disabled. Ratio of integrated penalty
// with 80% vs 50% first-attempt repair accuracy, across constraints.
func fig19(cfg Config, batch scaleDCNs) (*plan, error) {
	dcns, err := evalDCNs(cfg, batch, "fig19")
	if err != nil {
		return nil, err
	}
	capacities := []float64{0.25, 0.50, 0.75}
	accuracies := []float64{0.8, 0.5}
	var replays []sim.Replay
	for _, d := range dcns {
		for _, c := range capacities {
			for _, a := range accuracies {
				replays = append(replays, d.policyReplay(sim.PolicyCorrOpt, c, a, cfg.Seed))
			}
		}
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "fig19",
			Title:  "Penalty ratio with CorrOpt recommendations (80% accuracy) vs without (50%)",
			Header: []string{"dcn", "capacity", "ratio"},
		}
		for di, d := range dcns {
			for ci, c := range capacities {
				base := 2 * (di*len(capacities) + ci)
				good, bad := results[base], results[base+1]
				ratio := 1.0
				if bad.IntegratedPenalty > 0 {
					ratio = good.IntegratedPenalty / bad.IntegratedPenalty
				}
				r.AddRow(d.scale.String(), fmt.Sprintf("%.0f%%", 100*c), fmtF(ratio))
			}
		}
		r.AddNote("paper: ~30%% lower corruption losses at c=75%% from recommendations alone")
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}

// sec72 reproduces §7.2's deployment analysis: first-attempt repair success
// under the legacy manual process, under the deployed engine with ~30% of
// recommendations ignored, and when recommendations are followed.
func sec72(cfg Config, batch scaleDCNs) (*plan, error) {
	scale := cfg.Scale
	topo, err := batch.get(scale)
	if err != nil {
		return nil, err
	}
	e, err := evalTrace(topo, cfg.Seed, "sec72-topo", scale)
	if err != nil {
		return nil, err
	}
	// A realistic mixed-technology fabric: per-technology thresholds are
	// exactly what the deployed engine's single global threshold lacks.
	techs := optics.DefaultTechnologies()
	assign := func(l topology.LinkID) optics.Technology { return techs[int(l)%len(techs)] }
	inj, err := faults.NewMultiTechInjector(e.topo, assign,
		faults.InjectorConfig{FaultsPerLinkPerDay: FaultRate(scale)},
		rngutil.New(cfg.Seed).Split("sec72"))
	if err != nil {
		return nil, err
	}
	trace := inj.Generate(e.horizon)
	replay := func(ignoreProb, noOptics float64, deployed bool) sim.Replay {
		return sim.Replay{Topo: e.topo, Tech: optics.EvalTech(), Trace: trace, Horizon: e.horizon,
			Config: sim.Config{
				Policy:           sim.PolicyCorrOpt,
				Capacity:         0.5,
				Repair:           sim.RepairRecommendation,
				IgnoreProb:       ignoreProb,
				RepairConfig:     core.RepairConfig{UseDeployedEngine: deployed},
				NoOpticsFraction: noOptics,
				TechAssign:       assign,
				Seed:             cfg.Seed,
			}}
	}
	replays := []sim.Replay{
		// Recommendations always ignored = the manual process.
		replay(1.0, 0, false),
		// The early deployment: simplified engine, 30% of recommendations
		// ignored, and a quarter of switch types exposing no optical data.
		replay(0.3, 0.25, true),
		// Full Algorithm 1, always followed, optics everywhere.
		replay(0.0, 0, false),
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "sec72",
			Title:  "Repair accuracy: before CorrOpt, deployed (30% ignored), recommendations followed",
			Header: []string{"setting", "first_attempt_success", "mean_attempts", "paper"},
		}
		legacy, deployed, followed := results[0], results[1], results[2]
		r.AddRow("legacy manual process", fmt.Sprintf("%.0f%%", 100*legacy.FirstAttemptSuccessRate), fmtF(legacy.MeanAttempts), "50%")
		r.AddRow("deployed engine, 30% ignored", fmt.Sprintf("%.0f%%", 100*deployed.FirstAttemptSuccessRate), fmtF(deployed.MeanAttempts), "58%")
		r.AddRow("recommendations followed", fmt.Sprintf("%.0f%%", 100*followed.FirstAttemptSuccessRate), fmtF(followed.MeanAttempts), "80%")
		r.AddNote("paper: success rose from 50%% to 58%% overall (80%% when followed); technicians ignored 30%% of recommendations in the early deployment")
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}

// sec73 reproduces §7.3: the combined impact of CorrOpt (link disabling +
// repair recommendations) against current practice (switch-local + 50%
// accuracy), plus the capacity cost: the mean per-ToR available-path
// fraction drops by at most ~0.2%.
func sec73(cfg Config, batch scaleDCNs) (*plan, error) {
	dcns, err := evalDCNs(cfg, batch, "sec73")
	if err != nil {
		return nil, err
	}
	var replays []sim.Replay
	for _, e := range dcns {
		replays = append(replays,
			e.policyReplay(sim.PolicySwitchLocal, 0.75, 0.5, cfg.Seed),
			e.policyReplay(sim.PolicyCorrOpt, 0.75, 0.8, cfg.Seed))
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "sec73",
			Title:  "Combined impact vs current practice (c=75%)",
			Header: []string{"dcn", "quantity", "current_practice", "corropt", "paper"},
		}
		for i, e := range dcns {
			current, corropt := results[2*i], results[2*i+1]
			ratio := 0.0
			if current.IntegratedPenalty > 0 {
				ratio = corropt.IntegratedPenalty / current.IntegratedPenalty
			}
			meanFrac := func(res *sim.Result) float64 {
				var xs []float64
				for _, s := range res.Samples {
					xs = append(xs, s.MeanToRFraction)
				}
				return stats.Mean(xs)
			}
			mc, mo := meanFrac(current), meanFrac(corropt)
			r.AddRow(e.scale.String(), "integrated penalty", fmtF(current.IntegratedPenalty), fmtF(corropt.IntegratedPenalty), "3-6 orders of magnitude lower")
			r.AddRow(e.scale.String(), "penalty ratio", "1", fmtF(ratio), "1e-3 .. 1e-6")
			r.AddRow(e.scale.String(), "mean ToR path fraction", fmtF(mc), fmtF(mo), "reduced by at most 0.2%")
			r.AddNote("%s: capacity cost %.3f%% (paper ≤ 0.2%%)", e.scale, 100*(mc-mo))
		}
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}
