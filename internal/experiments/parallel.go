package experiments

import (
	"fmt"
	"time"

	"corropt/internal/faults"
	"corropt/internal/runner"
	"corropt/internal/sim"
	"corropt/internal/topology"
)

// simScenario is one independent trace replay: the unit of fan-out of the
// paper's evaluation (§7). run executes the replay on a worker, building
// its Sim from the worker-owned Scratch so event-queue items, tickets, and
// per-topology Network/State pairs are recycled across scenarios instead of
// reallocated. Scenarios may share topologies and fault traces — both are
// immutable during simulation — so concurrent replays of the same trace
// under different policies, constraints, or accuracies are safe. Every
// scenario seeds its own rngutil substream, so results are byte-identical
// for any worker count and any scenario-to-worker assignment.
type simScenario struct {
	run func(sc *sim.Scratch) (*sim.Result, error)
}

// plan is a sharded experiment decomposed into its scenario list plus a
// finish step that assembles the collected results (in scenario order) into
// the Report. Splitting drivers this way lets RunMany flatten many
// experiments into one global work list for the pool to load-balance over.
type plan struct {
	scenarios []simScenario
	finish    func(results []*sim.Result) (*Report, error)
}

// planner builds an experiment's plan for one configuration.
type planner func(cfg Config) (*plan, error)

// planners holds the sharded drivers by id; a subset of registry.
var planners = map[string]planner{}

// registerSharded registers a scenario-sharded experiment: Run(id) executes
// its plan on a private pool, and RunMany can flatten it into a global
// scenario list with other sharded experiments.
func registerSharded(id, description string, p planner) {
	planners[id] = p
	register(id, description, func(cfg Config) (*Report, error) {
		pl, err := p(cfg)
		if err != nil {
			return nil, err
		}
		results, err := runScenarios(cfg.Workers, pl.scenarios)
		if err != nil {
			return nil, err
		}
		return pl.finish(results)
	})
}

// evalDCN is one evaluation fabric with its shared fault trace.
type evalDCN struct {
	scale   Scale
	topo    *topology.Topology
	trace   []*faults.Fault
	horizon time.Duration
}

// evalDCNs builds the standard evaluation DCNs for the configured scale.
// Construction is memoized by (seed, name, scale), so repeated plans —
// benchmark iterations, RunMany batches — reuse one topology and trace.
func evalDCNs(cfg Config, name string) ([]evalDCN, error) {
	scales := evalScales(cfg.Scale)
	out := make([]evalDCN, len(scales))
	for i, scale := range scales {
		topo, trace, horizon, err := evalTrace(cfg, name+"-"+scale.String(), scale)
		if err != nil {
			return nil, err
		}
		out[i] = evalDCN{scale, topo, trace, horizon}
	}
	return out, nil
}

// policyScenario is the common scenario shape: one policy replay of a
// shared trace through the standard evaluation Config.
func policyScenario(topo *topology.Topology, trace []*faults.Fault, horizon time.Duration,
	policy sim.PolicyKind, capacity, accuracy float64, seed uint64) simScenario {
	return simScenario{run: func(sc *sim.Scratch) (*sim.Result, error) {
		return runPolicy(sc, topo, trace, horizon, policy, capacity, accuracy, seed)
	}}
}

// runScenarios replays every scenario on the bounded worker pool and
// returns the results in scenario order. Each worker owns one sim.Scratch
// for its lifetime (runner.MapScratch's contract), satisfying Scratch's
// one-Sim-at-a-time ownership rule.
func runScenarios(workers int, scenarios []simScenario) ([]*sim.Result, error) {
	return runner.MapScratch(workers, len(scenarios), sim.NewScratch,
		func(i int, sc *sim.Scratch) (*sim.Result, error) {
			return scenarios[i].run(sc)
		})
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

// RunMany executes several experiments as one batch. Every sharded
// experiment contributes its scenarios to a single global work list that
// one worker pool load-balances across — a driver with a few long replays
// no longer serializes the suite behind its stragglers while other
// drivers' scenarios wait. Results are sliced back to each plan's finish
// step in order, so the reports are byte-identical to running each id
// individually. Ids without a planner (serial drivers like fig18 or
// sec72) fall back to Run after the shared pool drains.
func RunMany(ids []string, cfg Config) ([]*Report, error) {
	if err := CheckIDs(ids); err != nil {
		return nil, err
	}
	type pending struct {
		idx int
		pl  *plan
		lo  int
	}
	var pends []pending
	var global []simScenario
	reports := make([]*Report, len(ids))
	for idx, id := range ids {
		p, ok := planners[id]
		if !ok {
			continue
		}
		pl, err := p(cfg)
		if err != nil {
			return nil, err
		}
		pends = append(pends, pending{idx: idx, pl: pl, lo: len(global)})
		global = append(global, pl.scenarios...)
	}
	results, err := runScenarios(cfg.Workers, global)
	if err != nil {
		return nil, err
	}
	for _, p := range pends {
		rep, err := p.pl.finish(results[p.lo : p.lo+len(p.pl.scenarios)])
		if err != nil {
			return nil, err
		}
		reports[p.idx] = rep
	}
	for idx, id := range ids {
		if reports[idx] != nil {
			continue
		}
		rep, err := Run(id, cfg)
		if err != nil {
			return nil, err
		}
		reports[idx] = rep
	}
	return reports, nil
}
