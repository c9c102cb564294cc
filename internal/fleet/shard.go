package fleet

import (
	"fmt"
	"slices"
	"time"

	"corropt/internal/core"
	"corropt/internal/topology"
)

// shard owns one sub-topology — a union of whole cone-closed segments of one
// DCN — and every piece of controller state for it: the Network with its
// incremental path counter and the core.Engine that decides over it, with
// activations scoped to the repaired link's segment. drain runs on a worker
// pool but touches shard-local state only; the supervisor serializes
// everything that crosses shards.
type shard struct {
	dcn int
	sub *topology.SegmentGraph
	net *core.Network
	eng *core.Engine

	// segOf maps a local link to its index in segs.
	segOf []int32
	segs  []segState

	pending   []shardEvent
	decisions []decision
	stats     shardStats
}

// segState is the controller state of one atomic segment within a shard.
type segState struct {
	global int                 // fleet-wide segment index
	links  *topology.LinkSet   // local link ids
	tors   []topology.SwitchID // local ToR ids, ascending
}

// shardEvent is a routed event in shard-local coordinates, tagged with the
// supervisor's global sequence number.
type shardEvent struct {
	seq  uint64
	at   time.Duration
	link topology.LinkID
	kind EventKind
	rate float64
}

// action is a controller decision that must cross the shard boundary.
type action uint8

const (
	actDisable action = iota
	actRepair
)

// decision is one cross-shard controller action: (seq, ord) is a total
// order — seq is the triggering event's routing order, ord the decision's
// index within that event — so merged decisions are identical for every
// shard packing and worker schedule.
type decision struct {
	seq  uint64
	ord  int32
	at   time.Duration
	dcn  int32
	link topology.LinkID // source-DCN link id
	act  action
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

// newShard builds the controller state for one packed shard. segBase is the
// fleet-wide index of the shard's first segment.
func newShard(dcn int, bs *builtShard, cfg *Config, segBase int) (*shard, error) {
	net, err := core.NewNetwork(bs.sub.Topo, cfg.Capacity)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewPolicyEngine(net, core.PolicyCorrOpt, core.EngineConfig{
		DetectionThreshold: cfg.Threshold,
		Penalty:            cfg.Penalty,
		Optimizer:          cfg.Optimizer,
	})
	if err != nil {
		return nil, err
	}
	sh := &shard{
		dcn:   dcn,
		sub:   bs.sub,
		net:   net,
		eng:   eng,
		segOf: make([]int32, bs.sub.Topo.NumLinks()),
		segs:  make([]segState, len(bs.segs)),
	}
	for si, seg := range bs.segs {
		st := &sh.segs[si]
		st.global = segBase + si
		st.links = topology.NewLinkSet(bs.sub.Topo.NumLinks())
		for _, src := range seg.Links {
			local, ok := slices.BinarySearch(sh.sub.Links, src)
			if !ok {
				return nil, fmt.Errorf("fleet: segment link %d missing from shard sub-topology", src)
			}
			st.links.Add(topology.LinkID(local))
			sh.segOf[local] = int32(si)
		}
		for _, srcTor := range seg.ToRs {
			local, ok := slices.BinarySearch(sh.sub.Switches, srcTor)
			if !ok {
				return nil, fmt.Errorf("fleet: segment ToR %d missing from shard sub-topology", srcTor)
			}
			st.tors = append(st.tors, topology.SwitchID(local))
		}
	}
	return sh, nil
}

// drain runs the shard's pending events through its engine in routed
// order and keeps the fleet's own bookkeeping from each outcome: the event
// tallies, and the decisions that cross the shard — ticket opens and
// resolves — buffered for the supervisor's ordered merge.
func (sh *shard) drain() {
	for i := range sh.pending {
		ev := &sh.pending[i]
		ord := int32(0)
		switch ev.kind {
		case Corruption:
			sh.stats.corruptions++
			switch sh.eng.ReportCorruption(ev.link, ev.rate).Outcome {
			case core.OutcomeDisabled:
				sh.stats.disabled++
				sh.emit(ev, &ord, ev.link, actDisable)
			case core.OutcomeBlocked:
				sh.stats.blocked++
			}
		case Repair:
			sh.stats.repairs++
			sh.net.SetCorruption(ev.link, 0)
			if !sh.net.Disabled(ev.link) {
				// The controller never took the link down; the repair
				// just clears its corruption.
				sh.stats.cleared++
				continue
			}
			sh.emit(ev, &ord, ev.link, actRepair)
			// The repair freed capacity: links the constraint previously
			// blocked may be safe to take down now. Segment-scoped by the
			// boundary invariant — no other segment's counts moved.
			seg := &sh.segs[sh.segOf[ev.link]]
			for _, cl := range sh.eng.Activate(ev.link, core.Scope{Links: seg.links, ToRs: seg.tors}) {
				sh.stats.reoptDisabled++
				sh.emit(ev, &ord, cl, actDisable)
			}
		}
	}
	sh.pending = sh.pending[:0]
}

// segPenalty sums one segment's §5 penalty — corrupting links left enabled
// — from the network state at read time, in ascending link order. Nothing
// is accumulated per event, so the float depends only on the segment's
// current state, not on shard packing, worker count or flush batching.
func (sh *shard) segPenalty(seg *segState, penalty core.PenaltyFunc) float64 {
	sum := 0.0
	seg.links.Each(func(l topology.LinkID) {
		if r := sh.net.CorruptionRate(l); r > 0 && !sh.net.Disabled(l) {
			sum += penalty(r)
		}
	})
	return sum
}

func (sh *shard) emit(ev *shardEvent, ord *int32, local topology.LinkID, act action) {
	sh.decisions = append(sh.decisions, decision{
		seq:  ev.seq,
		ord:  *ord,
		at:   ev.at,
		dcn:  int32(sh.dcn),
		link: sh.sub.Links[local],
		act:  act,
	})
	*ord++
}

// partEntry caches one distinct topology's partition, its packable units
// (segments with ToR-less orphans glued to a neighbor so every unit can
// anchor a valid sub-topology), and materialized shard sets per target
// count.
type partEntry struct {
	topo  *topology.Topology
	segs  []topology.Segment
	units [][]int // unit → segment indices, in global segment order

	targets []int
	builds  [][]*builtShard
}

// builtShard is one packed shard before controller state is attached: its
// sub-topology and the source-id segments it owns, in global order.
type builtShard struct {
	sub  *topology.SegmentGraph
	segs []topology.Segment
}

// partCache memoizes partitions and shard materializations by topology
// pointer: fleets commonly replicate a few shapes many times, and the
// per-shard Networks are the only state that must be per-DCN.
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

// shards materializes (or returns the memoized) packed shard set for the
// given per-DCN target count.
func (c *partCache) shards(topo *topology.Topology, target int) ([]*builtShard, error) {
	e, err := c.get(topo)
	if err != nil {
		return nil, err
	}
	for i, t := range e.targets {
		if t == target {
			return e.builds[i], nil
		}
	}
	bins := packUnits(e, target)
	out := make([]*builtShard, 0, len(bins))
	for _, bin := range bins {
		segsIn := make([]topology.Segment, len(bin))
		for j, si := range bin {
			segsIn[j] = e.segs[si]
		}
		sub, err := topo.SegmentGraph(segsIn)
		if err != nil {
			return nil, err
		}
		out = append(out, &builtShard{sub: sub, segs: segsIn})
	}
	e.targets = append(e.targets, target)
	e.builds = append(e.builds, out)
	return out, nil
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
