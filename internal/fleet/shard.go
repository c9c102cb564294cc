package fleet

import (
	"fmt"

	"corropt/internal/core"
	"corropt/internal/topology"
)

// shard owns the controller state of one packing unit of one DCN — a
// ToR-bearing cone-closed segment with any ToR-less orphan segments glued to
// it: the Network with its incremental path counter, and the
// core.RepairLoop that decides and tickets over it. The sub-topology is the
// shape's, shared read-only with every DCN of that shape; sub.Topo also with
// every unit of its shape, so its switch names and pods are the first
// unit's, and nothing here reads them (errors name source links). drain runs
// on a worker pool but writes shard-local state only.
type shard struct {
	sub  *topology.SegmentGraph
	dcn  int
	net  *core.Network
	loop *core.RepairLoop

	pending []core.Input // in shard-local link ids
	stats   shardStats
}

type shardStats struct {
	corruptions, repairs   int
	disabled, blocked      int
	reoptDisabled, cleared int
}

func (a *shardStats) add(b shardStats) {
	a.corruptions += b.corruptions
	a.repairs += b.repairs
	a.disabled += b.disabled
	a.blocked += b.blocked
	a.reoptDisabled += b.reoptDisabled
	a.cleared += b.cleared
}

// newShard builds the controller state for one unit of DCN dcn. A repair
// frees capacity only in its own segment, by the boundary invariant, and
// the engine's re-check probes only the segments that changed, so the loop
// re-checks the unit the way a loop over the whole DCN would.
func newShard(dcn int, sub *topology.SegmentGraph, cfg *Config) (*shard, error) {
	net, err := core.NewNetwork(sub.Topo, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewPolicyEngine(net, core.PolicyCorrOpt, core.EngineConfig{})
	if err != nil {
		return nil, err
	}
	sh := &shard{sub: sub, dcn: dcn, net: net}
	if sh.loop, err = core.NewRepairLoop(eng, core.RepairConfig{}, nil); err != nil {
		return nil, err
	}
	return sh, nil
}

// drain steps the shard's repair loop through its pending inputs in routed
// order and tallies each outcome.
func (sh *shard) drain() error {
	for _, in := range sh.pending {
		d, step, err := sh.loop.Step(in)
		if err != nil {
			return fmt.Errorf("fleet: DCN link %d: %w", sh.sub.Links[in.Link], err)
		}
		if in.Kind == Corruption {
			sh.stats.corruptions++
			switch d.Outcome {
			case core.OutcomeDisabled:
				sh.stats.disabled++
			case core.OutcomeBlocked:
				sh.stats.blocked++
			}
			continue
		}
		sh.stats.repairs++
		sh.stats.reoptDisabled += len(step.Opened)
		if step.Resolution == core.Cleared {
			sh.stats.cleared++
		}
	}
	sh.pending = sh.pending[:0]
	return nil
}

// shardSet is one shape cut into its units, built once and shared read-only
// by every DCN of that shape: the routing tables from a source link to its
// shard (relative to the DCN's first shard) and to its id in that shard's
// sub-topology, and each unit's sub-topology, one Topology per unit shape.
type shardSet struct {
	topo    *topology.Topology
	shardOf []int32
	localOf []topology.LinkID
	subs    []*topology.SegmentGraph
}

// newShardSet partitions topo and builds one sub-topology per unit shape: a
// unit is a ToR-bearing segment with the ToR-less orphan segments after it
// (or, for orphans before the first ToR-bearing segment, the first one)
// glued on, so every unit anchors a valid sub-topology.
func newShardSet(topo *topology.Topology) (*shardSet, error) {
	if topo.NumLinks() == 0 {
		return nil, fmt.Errorf("fleet: topology has no links")
	}
	segs := topo.Partition()
	var units [][]topology.Segment
	for _, seg := range segs {
		if len(seg.ToRs) == 0 && len(units) > 0 {
			units[len(units)-1] = append(units[len(units)-1], seg)
			continue
		}
		units = append(units, []topology.Segment{seg})
	}
	for len(units) > 1 && len(units[0][0].ToRs) == 0 {
		units[1] = append(units[0], units[1]...)
		units = units[1:]
	}
	if len(units[0][0].ToRs) == 0 {
		return nil, fmt.Errorf("fleet: topology has no ToR-bearing segments")
	}
	subs, err := topo.SegmentGraphs(units)
	if err != nil {
		return nil, err
	}
	set := &shardSet{
		topo:    topo,
		shardOf: make([]int32, topo.NumLinks()),
		localOf: make([]topology.LinkID, topo.NumLinks()),
		subs:    subs,
	}
	for i, sub := range subs {
		for local, src := range sub.Links {
			set.shardOf[src] = int32(i)
			set.localOf[src] = topology.LinkID(local)
		}
	}
	return set, nil
}
