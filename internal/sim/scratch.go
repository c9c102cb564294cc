package sim

import (
	"fmt"
	"time"

	"corropt/internal/core"
	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/runner"
	"corropt/internal/simclock"
	"corropt/internal/topology"
)

// Scratch is the per-worker reusable state behind NewWithScratch: the event
// clock, the repair loop (with its ticket queue's recycled-ticket arena and
// its bookkeeping maps), and the last topology's Network/State pair, which is
// Reset between scenarios on that topology instead of reallocated. A fresh
// Sim costs one PathCounter sweep plus O(links) allocations; a Scratch-backed
// Sim reuses all of it, which is what drives the experiment suite's event
// path toward zero allocations per scenario.
//
// Ownership rules:
//
//   - A Scratch serves one Sim at a time: NewWithScratch(.., sc) invalidates
//     every Sim previously built from sc, so a scenario's Run must finish
//     before the worker starts the next scenario. RunAll, the one pooled
//     replay path, gives each worker its own Scratch and runs its replays
//     one after another.
//   - A Scratch is not safe for concurrent use; never share one across
//     goroutines.
//   - Results returned by Run stay valid after the Scratch moves on — the
//     sample and per-day buffers are owned by the Result, never pooled.
type Scratch struct {
	clock *simclock.Clock
	loop  *core.RepairLoop
	// last is the most recent topology's reusable state. RunAll's chunked
	// claiming keeps a fabric's consecutive replays on one worker, so one
	// slot is what those replays hit; a new topology replaces it.
	last *topoScratch
}

// topoScratch is the reusable per-topology state: the Network (owning the
// incremental PathCounter) and the fault State (owning one optics.Link per
// link).
type topoScratch struct {
	topo  *topology.Topology
	net   *core.Network
	state *faults.State
}

// NewScratch returns an empty Scratch ready to back NewWithScratch calls.
func NewScratch() *Scratch {
	return &Scratch{clock: simclock.New(), loop: new(core.RepairLoop)}
}

// pool returns reusable per-topology state for topo, reset to the
// fresh-construction state for the given capacity and technology
// assignment. On a miss it builds a new pair in place of the last one.
func (sc *Scratch) pool(topo *topology.Topology, capacity float64,
	assign func(topology.LinkID) optics.Technology) (*topoScratch, error) {
	if ts := sc.last; ts != nil && ts.topo == topo {
		if err := ts.net.Reset(capacity); err != nil {
			return nil, err
		}
		ts.state.Reset(assign)
		return ts, nil
	}
	net, err := core.NewNetwork(topo, capacity)
	if err != nil {
		return nil, err
	}
	sc.last = &topoScratch{topo: topo, net: net, state: faults.NewMultiTechState(topo, assign)}
	return sc.last, nil
}

// Replay is one independent trace replay: the unit of fan-out of the
// paper's evaluation (§7). Replays may share topologies and traces — a Sim
// never mutates either — so one list can replay the same trace under many
// policies, constraints or repair models. Topo, Tech and Config are
// NewWithScratch's arguments; Trace, Clears and Horizon are RunEvents'.
type Replay struct {
	Topo    *topology.Topology
	Tech    optics.Technology
	Config  Config
	Trace   []*faults.Fault
	Clears  []Clear
	Horizon time.Duration
}

// ReplayError is RunAll's error: replay Index failed with Err.
type ReplayError struct {
	Index int
	Err   error
}

func (e *ReplayError) Error() string { return fmt.Sprintf("sim: replay %d: %v", e.Index, e.Err) }

func (e *ReplayError) Unwrap() error { return e.Err }

// RunAll replays every Replay on a pool of workers (runner.Workers sizes
// it) and returns the results in list order. Each worker owns one Scratch
// and runs its replays one at a time, which is Scratch's ownership rule;
// since a Scratch-backed run is bit-identical to a fresh one, the results
// are the same for any worker count. The error is the first failing
// replay's, in list order.
func RunAll(workers int, rs []Replay) ([]*Result, error) {
	return runner.MapScratch(workers, len(rs), NewScratch, func(i int, sc *Scratch) (*Result, error) {
		res, err := rs[i].run(sc)
		if err != nil {
			return nil, &ReplayError{Index: i, Err: err}
		}
		return res, nil
	})
}

// run replays r on a Sim built from sc.
func (r *Replay) run(sc *Scratch) (*Result, error) {
	s, err := NewWithScratch(r.Topo, r.Tech, r.Config, sc)
	if err != nil {
		return nil, err
	}
	return s.RunEvents(r.Trace, r.Clears, r.Horizon)
}
