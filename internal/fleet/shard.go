package fleet

import (
	"fmt"
	"slices"

	"corropt/internal/core"
	"corropt/internal/topology"
)

// shard owns the controller state of one sub-topology — a union of whole
// cone-closed segments of one DCN: the Network with its incremental path
// counter, and the core.RepairLoop that decides and tickets over it, with
// activations scoped to the repaired link's segment. The sub-topology and
// its segment tables are the shape's, shared read-only with every DCN of
// that shape. drain runs on a worker pool but writes shard-local state only.
type shard struct {
	*builtShard
	dcn  int
	net  *core.Network
	loop *core.RepairLoop

	pending []core.Input // in shard-local link ids
	stats   shardStats
}

// segment is one atomic segment of a built shard, in its local ids.
type segment struct {
	links *topology.LinkSet
	tors  []topology.SwitchID // ascending
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

// newShard builds the controller state for one packed shard of DCN dcn.
func newShard(dcn int, bs *builtShard, cfg *Config) (*shard, error) {
	net, err := core.NewNetwork(bs.sub.Topo, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewPolicyEngine(net, core.PolicyCorrOpt, core.EngineConfig{})
	if err != nil {
		return nil, err
	}
	sh := &shard{builtShard: bs, dcn: dcn, net: net}
	// A repair frees capacity only in its own segment, by the boundary
	// invariant, so the loop re-checks that segment alone.
	if sh.loop, err = core.NewRepairLoop(eng, core.RepairConfig{}, nil, sh.scope); err != nil {
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

// scope is link l's segment, the activation scope of its repair.
func (sh *shard) scope(l topology.LinkID) core.Scope {
	seg := &sh.segs[sh.segOf[l]]
	return core.Scope{Links: seg.links, ToRs: seg.tors}
}

// segPenalty sums one segment's §5 penalty — corrupting links left enabled
// — from the network state at read time, in ascending link order. Nothing
// is accumulated per event, so the float depends only on the segment's
// current state, not on shard packing, worker count or flush batching.
func (sh *shard) segPenalty(seg *segment) float64 {
	sum := 0.0
	seg.links.Each(func(l topology.LinkID) {
		if r := sh.net.CorruptionRate(l); r > 0 && !sh.net.Disabled(l) {
			sum += core.LinearPenalty(r)
		}
	})
	return sum
}

// partEntry caches one distinct topology's partition, its packable units
// (segments with ToR-less orphans glued to a neighbor so every unit can
// anchor a valid sub-topology), and its shard sets per target count.
type partEntry struct {
	topo  *topology.Topology
	segs  []topology.Segment
	units [][]int // unit → segment indices, in global segment order
	sets  []*shardSet
}

// shardSet is one shape packed into target shards, built once and shared
// read-only by every DCN of that shape: the routing tables from a source
// link to its shard (relative to the DCN's first shard) and to its id in
// that shard's sub-topology, and the shards themselves.
type shardSet struct {
	target  int
	shardOf []int32
	localOf []topology.LinkID
	shards  []*builtShard
}

// builtShard is the immutable half of a shard: its sub-topology, and its
// segments in local ids with the map from each local link to its segment.
type builtShard struct {
	sub   *topology.SegmentGraph
	segOf []int32
	segs  []segment
}

// partCache memoizes partitions and shard sets by topology pointer: fleets
// commonly replicate a few shapes many times, and the per-shard Networks
// and repair loops are the only state that must be per-DCN.
type partCache struct {
	entries []*partEntry
}

func newPartCache() *partCache { return &partCache{} }

func (c *partCache) get(topo *topology.Topology) (*partEntry, error) {
	for _, e := range c.entries {
		if e.topo == topo {
			return e, nil
		}
	}
	if topo.NumLinks() == 0 {
		return nil, fmt.Errorf("fleet: topology has no links")
	}
	segs := topo.Partition()
	var units [][]int
	for si := range segs {
		if len(segs[si].ToRs) == 0 && len(units) > 0 {
			units[len(units)-1] = append(units[len(units)-1], si)
			continue
		}
		units = append(units, []int{si})
	}
	for len(units) > 1 && len(segs[units[0][0]].ToRs) == 0 {
		units[1] = append(units[0], units[1]...)
		units = units[1:]
	}
	if len(segs[units[0][0]].ToRs) == 0 {
		return nil, fmt.Errorf("fleet: topology has no ToR-bearing segments")
	}
	e := &partEntry{topo: topo, segs: segs, units: units}
	c.entries = append(c.entries, e)
	return e, nil
}

// shards builds (or returns the memoized) shard set packing topo into the
// given per-DCN target count.
func (c *partCache) shards(topo *topology.Topology, target int) (*shardSet, error) {
	e, err := c.get(topo)
	if err != nil {
		return nil, err
	}
	for _, set := range e.sets {
		if set.target == target {
			return set, nil
		}
	}
	set := &shardSet{
		target:  target,
		shardOf: make([]int32, topo.NumLinks()),
		localOf: make([]topology.LinkID, topo.NumLinks()),
	}
	for i, bin := range packUnits(e, target) {
		segsIn := make([]topology.Segment, len(bin))
		for j, si := range bin {
			segsIn[j] = e.segs[si]
		}
		bs, err := buildShard(topo, segsIn)
		if err != nil {
			return nil, err
		}
		for local, src := range bs.sub.Links {
			set.shardOf[src] = int32(i)
			set.localOf[src] = topology.LinkID(local)
		}
		set.shards = append(set.shards, bs)
	}
	e.sets = append(e.sets, set)
	return set, nil
}

// buildShard materializes the sub-topology of the given segments of topo and
// maps each segment into its local ids.
func buildShard(topo *topology.Topology, segs []topology.Segment) (*builtShard, error) {
	sub, err := topo.SegmentGraph(segs)
	if err != nil {
		return nil, err
	}
	bs := &builtShard{
		sub:   sub,
		segOf: make([]int32, sub.Topo.NumLinks()),
		segs:  make([]segment, len(segs)),
	}
	for si, seg := range segs {
		st := &bs.segs[si]
		st.links = topology.NewLinkSet(sub.Topo.NumLinks())
		for _, src := range seg.Links {
			local, ok := slices.BinarySearch(sub.Links, src)
			if !ok {
				return nil, fmt.Errorf("fleet: segment link %d missing from shard sub-topology", src)
			}
			st.links.Add(topology.LinkID(local))
			bs.segOf[local] = int32(si)
		}
		for _, srcTor := range seg.ToRs {
			local, ok := slices.BinarySearch(sub.Switches, srcTor)
			if !ok {
				return nil, fmt.Errorf("fleet: segment ToR %d missing from shard sub-topology", srcTor)
			}
			st.tors = append(st.tors, topology.SwitchID(local))
		}
	}
	return bs, nil
}

// packUnits chunks the units into target contiguous bins balanced by link
// count. Bins respect unit boundaries (a unit is never split) and every bin
// gets at least one unit.
func packUnits(e *partEntry, target int) [][]int {
	if target >= len(e.units) {
		bins := make([][]int, len(e.units))
		for i, u := range e.units {
			bins[i] = u
		}
		return bins
	}
	unitLinks := func(u []int) int {
		n := 0
		for _, si := range u {
			n += len(e.segs[si].Links)
		}
		return n
	}
	rem := 0
	for _, u := range e.units {
		rem += unitLinks(u)
	}
	bins := make([][]int, 0, target)
	var cur []int
	acc := 0
	for ui, u := range e.units {
		cur = append(cur, u...)
		acc += unitLinks(u)
		unitsLeft := len(e.units) - ui - 1
		binsLeft := target - len(bins) - 1
		if binsLeft > 0 && unitsLeft > 0 &&
			(unitsLeft == binsLeft || float64(acc) >= float64(rem)/float64(binsLeft+1)) {
			bins = append(bins, cur)
			cur = nil
			rem -= acc
			acc = 0
		}
	}
	return append(bins, cur)
}
