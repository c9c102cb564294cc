package core

import (
	"slices"
	"testing"

	"corropt/internal/topology"
)

// shardTestTopo is a 4-pod Clos whose pods partition into 4 independent
// segments, with enough corrupting links per pod that the optimizer has both
// safe disables and contested capacity decisions to make.
func shardTestTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods:               4,
		ToRsPerPod:         6,
		AggsPerPod:         3,
		Spines:             9,
		SpineUplinksPerAgg: 3,
		BreakoutSize:       0,
	})
	if err != nil {
		t.Fatalf("NewClos: %v", err)
	}
	return topo
}

// corruptShardPattern corrupts, in pods 0 and 2: every uplink of the pod's
// first ToR (so disabling all of them would violate capacity), plus a few
// agg→spine links.
func corruptShardPattern(net *Network, topo *topology.Topology, segs []topology.Segment) {
	for _, si := range []int{0, 2} {
		seg := segs[si]
		tor := seg.ToRs[0]
		for _, l := range topo.Uplinks(tor) {
			net.SetCorruption(l, 1e-3)
		}
		// Every third agg→spine link of the segment.
		n := 0
		for _, l := range seg.Links {
			if topo.Switch(topo.Link(l).Lower).Stage == 1 {
				if n%3 == 0 {
					net.SetCorruption(l, 1e-4)
				}
				n++
			}
		}
	}
}

// segmentGraphs returns the sub-topology of each of topo's segments, in
// Partition order: the shards a fleet builds for a topology without
// ToR-less segments.
func segmentGraphs(tb testing.TB, topo *topology.Topology) []*topology.SegmentGraph {
	tb.Helper()
	var units [][]topology.Segment
	for _, seg := range topo.Partition() {
		units = append(units, []topology.Segment{seg})
	}
	out, err := topo.SegmentGraphs(units)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// toLocal returns source link l's id in sg.
func toLocal(tb testing.TB, sg *topology.SegmentGraph, l topology.LinkID) topology.LinkID {
	i, ok := slices.BinarySearch(sg.Links, l)
	if !ok {
		tb.Fatalf("link %d is not in the sub-topology", l)
	}
	return topology.LinkID(i)
}

// toSource maps links of sg back to the source topology's ids.
func toSource(sg *topology.SegmentGraph, links []topology.LinkID) []topology.LinkID {
	var out []topology.LinkID
	for _, l := range links {
		out = append(out, sg.Links[l])
	}
	return out
}

// loadShard copies whole's state on sg's switches and links into n, a
// network over sg.Topo: the ToR constraints, the rates and the disabled set.
func loadShard(tb testing.TB, whole *Network, sg *topology.SegmentGraph, n *Network) {
	tb.Helper()
	for _, tor := range sg.Topo.ToRs() {
		if err := n.SetToRConstraint(tor, whole.Constraint(sg.Switches[tor])); err != nil {
			tb.Fatal(err)
		}
	}
	for local, src := range sg.Links {
		n.SetCorruption(topology.LinkID(local), whole.CorruptionRate(src))
		if whole.Disabled(src) {
			n.Disable(topology.LinkID(local))
		}
	}
}

// TestShardRunsMatchRun pins the sharding contract the fleet relies on:
// one optimizer run per segment, each over a network of that segment's
// sub-topology loaded with the same state, chooses exactly the links a
// single whole-topology Run does.
func TestShardRunsMatchRun(t *testing.T) {
	topo := shardTestTopo(t)
	segs := topo.Partition()
	if len(segs) != 4 {
		t.Fatalf("got %d segments, want 4", len(segs))
	}

	const threshold = 1e-6
	build := func() *Network {
		net, err := NewNetwork(topo, 0.5)
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		corruptShardPattern(net, topo, segs)
		return net
	}

	src := build()
	netFull := build()
	full, fullStats := NewOptimizer(netFull, nil).Run(threshold)
	if fullStats.Active == 0 || len(full) == 0 {
		t.Fatalf("reference Run disabled nothing (stats %+v)", fullStats)
	}
	if len(full) == fullStats.Active {
		t.Fatalf("reference Run disabled every active link; pattern does not exercise capacity decisions")
	}

	var sharded []topology.LinkID
	activeTotal, disabledTotal := 0, 0
	for _, sg := range segmentGraphs(t, topo) {
		net, err := NewNetwork(sg.Topo, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		loadShard(t, src, sg, net)
		chosen, st := NewOptimizer(net, nil).Run(threshold)
		sharded = append(sharded, toSource(sg, chosen)...)
		activeTotal += st.Active
		disabledTotal += net.NumDisabled()
		if !net.Feasible(nil) {
			t.Fatalf("shard network left infeasible")
		}
	}
	if activeTotal != fullStats.Active {
		t.Errorf("shard runs saw %d active links, full run %d", activeTotal, fullStats.Active)
	}

	sortedFull := slices.Clone(full)
	slices.Sort(sortedFull)
	slices.Sort(sharded)
	if !slices.Equal(sortedFull, sharded) {
		t.Fatalf("shard disables %v != full-run disables %v", sharded, sortedFull)
	}
	if want := netFull.NumDisabled(); disabledTotal != want {
		t.Fatalf("shard networks have %d disabled, full has %d", disabledTotal, want)
	}
	if !netFull.Feasible(nil) {
		t.Fatalf("full network left infeasible")
	}
}
