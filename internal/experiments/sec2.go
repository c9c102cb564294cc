package experiments

import (
	"corropt/internal/sim"
)

func init() {
	register("sec2", "§2: without automatic link disabling, corruption losses would be ~2 orders of magnitude higher", sec2)
}

// sec2 reproduces the estimate at the end of §2: the production
// (switch-local) disabling system, despite its limitations, keeps
// corruption losses about two orders of magnitude lower than doing nothing.
// We replay the same trace with mitigation off, with the production
// switch-local system, and with CorrOpt, on a fabric whose switch radix
// gives switch-local a usable (non-zero) disable budget (its budget is
// ⌊8·(1−√0.75)⌋ = 1 per radix-8 switch).
func sec2(cfg Config) (*plan, error) {
	e, err := sec2Trace(cfg.Seed, cfg.Scale)
	if err != nil {
		return nil, err
	}
	// The three mitigation levels replay the same trace independently —
	// fan them out and normalize against the do-nothing baseline once all
	// are in.
	policies := []sim.PolicyKind{sim.PolicyNone, sim.PolicySwitchLocal, sim.PolicyCorrOpt}
	replays := make([]sim.Replay, len(policies))
	for i, p := range policies {
		replays[i] = e.policyReplay(p, 0.75, 0.5, cfg.Seed)
	}
	finish := func(results []*sim.Result) (*Report, error) {
		r := &Report{
			ID:     "sec2",
			Title:  "Integrated corruption penalty: no mitigation vs switch-local vs CorrOpt",
			Header: []string{"mitigation", "integrated_penalty", "vs_no_mitigation"},
		}
		base := results[0].IntegratedPenalty
		for i, p := range policies {
			res := results[i]
			ratio := "1"
			if base > 0 && p != sim.PolicyNone {
				ratio = fmtF(res.IntegratedPenalty / base)
			}
			r.AddRow(p.String(), fmtF(res.IntegratedPenalty), ratio)
		}
		r.AddNote("paper §2: 'we estimate that without it, corruption-induced losses would be two orders of magnitude higher' — the switch-local row should sit around 1e-2 of the do-nothing row")
		return r, nil
	}
	return &plan{replays: replays, finish: finish}, nil
}
