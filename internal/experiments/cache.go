package experiments

import (
	"time"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// This file builds the inputs of the experiment drivers: evaluation
// topologies and the fault traces generated over them. Both are read-only
// during simulation (DESIGN.md §7.4) — a Sim never mutates its Topology or
// the *faults.Fault records it replays — so a driver builds each input once
// in its plan and every replay of it shares the one copy.

// traceEntry is one (topology, trace) pair plus the scalars derived
// alongside them.
type traceEntry struct {
	topo    *topology.Topology
	trace   []*faults.Fault
	horizon time.Duration
	// simSeed is the simulation substream seed of fleet members and
	// Figure 1's DCNs, derived from the same substream as their trace; zero
	// for every other entry kind.
	simSeed uint64
}

// injectTrace generates a single-technology fault trace over topo at rate
// faults per link per day for horizon, drawn from rng.
func injectTrace(topo *topology.Topology, rate float64, rng *rngutil.Source, horizon time.Duration) (*traceEntry, error) {
	inj, err := faults.NewInjector(topo, optics.EvalTech(), faults.InjectorConfig{FaultsPerLinkPerDay: rate}, rng)
	if err != nil {
		return nil, err
	}
	return &traceEntry{topo: topo, trace: inj.Generate(horizon), horizon: horizon}, nil
}

// evalTrace is the standard evaluation workload of §7.1 over topo, the
// scale's DCN: the fault trace seeded by (seed, name) at the scale's fault
// rate and horizon.
func evalTrace(topo *topology.Topology, seed uint64, name string, scale Scale) (*traceEntry, error) {
	return injectTrace(topo, FaultRate(scale), rngutil.New(seed).Split(name), evalHorizon(scale))
}

// sec2Trace is the §2 workload: the radix-8 fabric (where the production
// switch-local rule has a usable disable budget) under a doubled fault
// rate.
func sec2Trace(seed uint64, scale Scale) (*traceEntry, error) {
	pods := 8
	if scale != ScaleSmall {
		pods = 30
	}
	topo, err := closWithPods(pods)
	if err != nil {
		return nil, err
	}
	return injectTrace(topo, 2*FaultRate(scale), rngutil.New(seed).Split("sec2"), evalHorizon(scale))
}

// fig1DCN is Figure 1's DCN dcn at scale: a fabric of the dcn-th of 15
// sizes, its fault trace under four times the scale's fault rate, and its
// simulation seed, drawn from the DCN's substream as Split("faults") then
// Split("sim").
func fig1DCN(seed uint64, scale Scale, dcn int) (*traceEntry, error) {
	maxPods := map[Scale]int{ScaleSmall: 8, ScaleMedium: 40, ScaleLarge: 110}[scale]
	if maxPods == 0 {
		maxPods = 8
	}
	topo, err := closWithPods(1 + dcn*(maxPods-1)/14)
	if err != nil {
		return nil, err
	}
	rng := rngutil.New(seed).Split("fig1").SplitIndex("dcn", dcn)
	e, err := injectTrace(topo, 4*FaultRate(scale), rng.Split("faults"), time.Duration(fig1Days)*24*time.Hour)
	if err != nil {
		return nil, err
	}
	e.simSeed = rng.Split("sim").Seed()
	return e, nil
}

// fleetHorizon is the fleet study's fixed three-month window.
const fleetHorizon = 90 * 24 * time.Hour

// fleetMember is one fleet DCN: its topology, multi-technology fault trace,
// and simulation seed, all derived from the per-index rngutil substream.
// The rng draw order below must match the original inline construction
// exactly — pods, ToRsPerPod, SpineUplinksPerAgg, fault rate,
// Split("faults"), Split("sim") — because the substream state threads
// through every draw.
func fleetMember(seed uint64, index int) (*traceEntry, error) {
	techs := optics.DefaultTechnologies()
	rng := rngutil.New(seed).Split("fleet").SplitIndex("dcn", index)
	pods := 2 + rng.Intn(10)
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: pods, ToRsPerPod: 4 + rng.Intn(8), AggsPerPod: 4,
		Spines: 16, SpineUplinksPerAgg: 4 + 2*rng.Intn(3), BreakoutSize: 4,
	})
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewMultiTechInjector(topo, fleetAssign(techs, index),
		faults.InjectorConfig{FaultsPerLinkPerDay: rng.Range(1, 4) / 4500},
		rng.Split("faults"))
	if err != nil {
		return nil, err
	}
	return &traceEntry{topo: topo, trace: inj.Generate(fleetHorizon), horizon: fleetHorizon,
		simSeed: rng.Split("sim").Seed()}, nil
}

// fleetAssign is fleet member index's technology mix: the default
// technologies striped across links with a per-DCN offset.
func fleetAssign(techs []optics.Technology, index int) func(topology.LinkID) optics.Technology {
	return func(l topology.LinkID) optics.Technology {
		return techs[(int(l)+index)%len(techs)]
	}
}
