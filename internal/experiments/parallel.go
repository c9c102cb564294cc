package experiments

import (
	"fmt"

	"corropt/internal/optics"
	"corropt/internal/sim"
)

// plan is one experiment decomposed into the independent trace replays it
// needs plus a finish step that assembles their results (in replay order)
// into the Report. An analytic driver is a plan with no replays whose
// finish does all its work. Splitting drivers this way lets RunMany hand
// every experiment's replays to sim.RunAll as one list for the pool to
// load-balance over.
type plan struct {
	replays []sim.Replay
	finish  func(results []*sim.Result) (*Report, error)
}

// analytic turns a driver that replays nothing on the pool into a plan
// builder: its plan has no replays and its finish runs the driver.
func analytic(fn Func) func(Config) (*plan, error) {
	return func(cfg Config) (*plan, error) {
		return &plan{finish: func([]*sim.Result) (*Report, error) { return fn(cfg) }}, nil
	}
}

// replay replays e's trace over the evaluation technology under cfg.
func (e *traceEntry) replay(cfg sim.Config) sim.Replay {
	return sim.Replay{Topo: e.topo, Tech: optics.EvalTech(), Config: cfg, Trace: e.trace, Horizon: e.horizon}
}

// policyReplay is the common replay shape: one policy over e's trace
// through the standard evaluation Config.
func (e *traceEntry) policyReplay(policy sim.PolicyKind, capacity, accuracy float64, seed uint64) sim.Replay {
	return e.replay(sim.Config{Policy: policy, Capacity: capacity, FixedAccuracy: accuracy, Seed: seed})
}

// evalDCN is one evaluation fabric with its shared fault trace.
type evalDCN struct {
	scale Scale
	*traceEntry
}

// evalDCNs builds the standard evaluation DCNs for the configured scale,
// each with its fault trace seeded by (seed, name-scale).
func evalDCNs(cfg Config, name string) ([]evalDCN, error) {
	scales := evalScales(cfg.Scale)
	out := make([]evalDCN, len(scales))
	for i, scale := range scales {
		topo, err := DCN(scale)
		if err != nil {
			return nil, err
		}
		e, err := evalTrace(topo, cfg.Seed, name+"-"+scale.String(), scale)
		if err != nil {
			return nil, err
		}
		out[i] = evalDCN{scale, e}
	}
	return out, nil
}

// CheckIDs reports the first id in ids that names no experiment.
func CheckIDs(ids []string) error {
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return fmt.Errorf("experiments: unknown experiment %q (use List)", id)
		}
	}
	return nil
}

// RunMany executes several experiments as one batch. It builds every plan,
// replays all of their replays in one sim.RunAll call — a driver with a few
// long replays no longer serializes the suite behind its stragglers while
// other drivers' replays wait — and then finishes each plan in id order on
// its slice of the results, so the reports are byte-identical to running
// each id individually.
func RunMany(ids []string, cfg Config) ([]*Report, error) {
	if err := CheckIDs(ids); err != nil {
		return nil, err
	}
	plans := make([]*plan, len(ids))
	var replays []sim.Replay
	for i, id := range ids {
		pl, err := registry[id](cfg)
		if err != nil {
			return nil, err
		}
		plans[i] = pl
		replays = append(replays, pl.replays...)
	}
	results, err := sim.RunAll(cfg.Workers, replays)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, len(ids))
	for i, pl := range plans {
		n := len(pl.replays)
		if reports[i], err = pl.finish(results[:n:n]); err != nil {
			return nil, err
		}
		results = results[n:]
	}
	return reports, nil
}
