package experiments

import (
	"fmt"
	"sort"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

func init() {
	register("tab2", "root causes, symptom signatures, and recommendation accuracy", analytic(tab2))
	register("fig7912", "optical power and corruption time series per root cause, incl. the failed-repair loop", analytic(fig7912))
}

// tab2 reproduces Table 2: for each root cause, the most likely optical
// symptom signature and its contribution to the fault population, plus the
// recommendation engine's per-cause accuracy (the tandem-monitoring
// methodology of §4 that the engine distills).
func tab2(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "tab2",
		Title:  "Root causes: symptom signatures, contribution, and engine accuracy",
		Header: []string{"root_cause", "observed_share", "paper_share", "engine_accuracy", "dominant_recommendation"},
	}
	topo, err := DCN(ScaleSmall) // fault population statistics do not need a big fabric
	if err != nil {
		return nil, err
	}
	rng := rngutil.New(cfg.Seed).Split("tab2")
	st := faults.NewState(topo, optics.EvalTech())
	inj, err := faults.NewInjector(topo, optics.EvalTech(), faults.InjectorConfig{}, rng.Split("faults"))
	if err != nil {
		return nil, err
	}

	const n = 2000
	counts := make(map[faults.RootCause]int)
	hits := make(map[faults.RootCause]int)
	diagnosed := make(map[faults.RootCause]int)
	recs := make(map[faults.RootCause]map[faults.RepairAction]int)
	for i := 0; i < n; i++ {
		f := inj.NewFault(0)
		counts[f.Cause]++
		st.Apply(f)
		for _, l := range f.Links() {
			d, ok := core.DiagnoseState(st, l, 1e-7, false)
			if !ok {
				continue
			}
			rec := core.Recommend(d)
			diagnosed[f.Cause]++
			if recs[f.Cause] == nil {
				recs[f.Cause] = make(map[faults.RepairAction]int)
			}
			recs[f.Cause][rec]++
			for _, a := range f.Cause.Repairs() {
				if rec == a {
					hits[f.Cause]++
					break
				}
			}
		}
		st.Clear(f.ID)
	}

	paperShare := map[faults.RootCause]string{
		faults.ConnectorContamination: "17-57%",
		faults.DamagedFiber:           "14-48%",
		faults.DecayingTransmitter:    "<1%",
		faults.BadTransceiver:         "6-45%",
		faults.SharedComponent:        "10-26%",
	}
	for c := faults.RootCause(0); c < faults.RootCause(faults.NumCauses); c++ {
		acc := 0.0
		if diagnosed[c] > 0 {
			acc = float64(hits[c]) / float64(diagnosed[c])
		}
		// Argmax in sorted action order: with map iteration the winner of a
		// tie depended on runtime map order, making the report row
		// nondeterministic. Ties now break toward the lowest action value.
		dominant, best := faults.ActionUnknown, 0
		var actions []faults.RepairAction
		for a := range recs[c] {
			actions = append(actions, a)
		}
		sort.Slice(actions, func(i, j int) bool { return actions[i] < actions[j] })
		for _, a := range actions {
			if k := recs[c][a]; k > best {
				dominant, best = a, k
			}
		}
		r.AddRow(c.String(),
			fmt.Sprintf("%.1f%%", 100*float64(counts[c])/float64(n)),
			paperShare[c],
			fmt.Sprintf("%.0f%%", 100*acc),
			dominant.String())
	}
	r.AddNote("symptom key (Table 2): contamination H→H/L←H one-sided; damaged fiber H→L/L←H both sides low Rx; decaying transmitter L←L; transceiver & shared component all-high power")
	r.AddNote("engine accuracy is below 100%% where symptoms are ambiguous (e.g. back-reflection contamination shows healthy power), as §4 explains")
	return r, nil
}

// fig7912 reproduces the time-series examples of Figures 7, 9 and 12: a
// dirty connector dropping one side's RxPower, a damaged fiber dropping
// both, and a link going through two failed repair attempts before the
// third one (replacing the fiber) eliminates corruption.
func fig7912(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "fig7912",
		Title:  "Per-root-cause optical/corruption time series",
		Header: []string{"scenario", "day", "rx_lower_dbm", "rx_upper_dbm", "tx_lower_dbm", "tx_upper_dbm", "corruption_rate"},
	}
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 1, ToRsPerPod: 2, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1,
	})
	if err != nil {
		return nil, err
	}
	tech := optics.EvalTech()

	record := func(scenario string, st *faults.State, l topology.LinkID, day int) {
		ol := st.Optics(l)
		r.AddRow(scenario, fmt.Sprintf("%d", day),
			fmtF(float64(ol.RxPower(optics.LowerSide))), fmtF(float64(ol.RxPower(optics.UpperSide))),
			fmtF(float64(ol.TxPower(optics.LowerSide))), fmtF(float64(ol.TxPower(optics.UpperSide))),
			fmtF(st.WorstRate(l)))
	}

	// Figure 7: contamination strikes on day 5 (RxPower drops on one side,
	// corruption jumps to ~1e-2); cleaning on day 27 restores both.
	{
		st := faults.NewState(topo, tech)
		l := topology.LinkID(0)
		f := &faults.Fault{ID: 1, Cause: faults.ConnectorContamination,
			Effects: []faults.LinkEffect{{Link: l, ExtraLossFrom: [2]optics.DB{optics.LowerSide: 12.33}}}}
		for day := 0; day <= 30; day++ {
			if day == 5 {
				st.Apply(f)
			}
			if day == 27 {
				st.Clear(f.ID)
			}
			record("fig7-contamination", st, l, day)
		}
	}

	// Figure 9: fiber damage on day 3 drops RxPower on both sides at
	// once; replacement on day 33 restores them.
	{
		st := faults.NewState(topo, tech)
		l := topology.LinkID(1)
		f := &faults.Fault{ID: 2, Cause: faults.DamagedFiber,
			Effects: []faults.LinkEffect{{Link: l, ExtraLossFrom: [2]optics.DB{11.0, 11.5}}}}
		for day := 0; day <= 35; day++ {
			if day == 3 {
				st.Apply(f)
			}
			if day == 33 {
				st.Clear(f.ID)
			}
			record("fig9-damaged-fiber", st, l, day)
		}
	}

	// Figure 12: a fiber fault misrepaired twice. (a) healthy, (b)
	// corruption starts, (c) disabled for repair, (d) enabled after a
	// clean+reseat that did not address the cause, (e) disabled again,
	// (f) enabled after another failed attempt, (g) disabled and finally
	// fixed by replacing the fiber.
	{
		st := faults.NewState(topo, tech)
		l := topology.LinkID(2)
		f := &faults.Fault{ID: 3, Cause: faults.DamagedFiber,
			Effects: []faults.LinkEffect{{Link: l, ExtraLossFrom: [2]optics.DB{10.5, 10.8}}}}
		disabled := false
		for day := 0; day <= 16; day++ {
			switch day {
			case 2:
				st.Apply(f) // (b)
			case 4:
				disabled = true // (c) disabled, ticket: clean fiber
			case 6:
				disabled = false // (d) clean+reseat did not help
			case 8:
				disabled = true // (e)
			case 10:
				disabled = false // (f) reseat again, still corrupting
			case 12:
				disabled = true // (g) replace fiber
			case 14:
				st.Clear(f.ID)
				disabled = false
			}
			if disabled {
				r.AddRow("fig12-failed-repairs", fmt.Sprintf("%d", day), "disabled", "disabled", "disabled", "disabled", "0")
			} else {
				record("fig12-failed-repairs", st, l, day)
			}
		}
		r.AddNote("fig12: each failed attempt adds ~2 days of downtime; the third attempt (fiber replacement) eliminates corruption, matching the ticket diary the paper shows")
	}
	return r, nil
}
