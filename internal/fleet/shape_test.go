package fleet

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"corropt/internal/topology"
)

// TestShardSetShared holds the fleet to one copy of per-shape state: two
// DCNs on one *Topology get the same shardSet, so their shards share the
// sub-topologies, while each keeps its own Network and repair loop.
func TestShardSetShared(t *testing.T) {
	dcns := testFleetTopos(t) // east and west share one *Topology
	sup, err := New(dcns, Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if sup.sets[0] != sup.sets[1] {
		t.Fatalf("east and west share a topology but got distinct shard sets")
	}
	if sup.sets[0] == sup.sets[2] {
		t.Fatalf("north has its own topology but got east's shard set")
	}
	east := sup.shards[sup.dcnShards[0][0]:sup.dcnShards[0][1]]
	west := sup.shards[sup.dcnShards[1][0]:sup.dcnShards[1][1]]
	if len(east) != len(west) || len(east) == 0 {
		t.Fatalf("east has %d shards, west %d", len(east), len(west))
	}
	for i := range east {
		a, b := east[i], west[i]
		if a.sub != b.sub {
			t.Errorf("shard %d: east and west hold separate sub-topologies", i)
		}
		if a.net == b.net || a.loop == b.loop {
			t.Errorf("shard %d: east and west share per-DCN controller state", i)
		}
	}
}

// extraDCNAllocCeiling bounds the bytes New allocates for one more DCN of an
// already-present shape: with the routing and segment tables per shape and
// the path-count skeleton on the topology, that is each shard's Network and
// repair loop. The tree before this ceiling, which copied the tables per DCN
// and the skeleton per shard, read 1,941,104 bytes; the tree whose counters
// kept a count per spine read 415,752–421,208 (go1.24), and fails it; this
// tree, whose unit counters keep none for the top stage, reads 231,448.
const extraDCNAllocCeiling = 285_000

// firstDCNAllocCeiling bounds the bytes New allocates for the first DCN of
// the large Clos: its partition, routing tables and unit maps, one unit
// topology for its one pod shape, and each shard's Network and repair loop.
// The tree that built one sub-topology per unit read 10,611,016 bytes
// (go1.24), and fails it; this tree reads 1,208,040.
const firstDCNAllocCeiling = 1_500_000

// largeClos is the large evaluation DCN: 72 identical pods of 6 aggs and 56
// ToRs under 144 spines, 34,560 links.
func largeClos(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
		Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// newAlloc returns the bytes New allocates over n DCNs on topo.
func newAlloc(t *testing.T, topo *topology.Topology, n int) uint64 {
	t.Helper()
	dcns := make([]DCN, n)
	for i := range dcns {
		dcns[i] = DCN{Topo: topo}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := New(dcns, Config{Workers: 1}); err != nil {
		t.Fatalf("New: %v", err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestExtraDCNAllocCeiling measures the TotalAlloc difference between New
// over two and over one DCN of the large Clos (34,560 links, one shard per
// pod): the shape's partition and shard set are built in both, so the
// difference is what the second DCN alone costs.
func TestExtraDCNAllocCeiling(t *testing.T) {
	topo := largeClos(t)
	extra := newAlloc(t, topo, 2) - newAlloc(t, topo, 1)
	t.Logf("one extra same-shape DCN allocates %d bytes, ceiling %d", extra, extraDCNAllocCeiling)
	if extra > extraDCNAllocCeiling {
		t.Errorf("one extra same-shape DCN allocates %d bytes, over the ceiling %d", extra, extraDCNAllocCeiling)
	}
}

// TestFirstDCNAllocCeiling measures the TotalAlloc of New over one DCN of
// the large Clos, which holds the fleet to one unit topology per pod shape.
func TestFirstDCNAllocCeiling(t *testing.T) {
	topo := largeClos(t)
	first := newAlloc(t, topo, 1)
	t.Logf("the first DCN allocates %d bytes, ceiling %d", first, firstDCNAllocCeiling)
	if first > firstDCNAllocCeiling {
		t.Errorf("the first DCN allocates %d bytes, over the ceiling %d", first, firstDCNAllocCeiling)
	}
}

// retainedHeapCeiling bounds the heap a fleet over one large-Clos DCN still
// holds after one replay pass: each shard's Network, repair loop and ticket
// queue. The tree whose queues kept a tally for every link they ever
// ticketed, four repair maps per shard and a constraint per ToR read
// 1,590,080 bytes (go1.24), and fails it; this tree reads 1,233,376–1,243,360.
const retainedHeapCeiling = 1_400_000

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestRetainedHeapCeiling measures the live heap New and one pass of 20,000
// events over one DCN of the large Clos leave behind, net of the topology
// and the events.
func TestRetainedHeapCeiling(t *testing.T) {
	dcns := []DCN{{Topo: largeClos(t)}}
	evs := synthesizeEvents(dcns, 3, 20_000)
	base := liveHeap()
	sup, err := New(dcns, Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for lo := 0; lo < len(evs); lo += 1000 {
		if err := sup.Ingest(evs[lo:min(lo+1000, len(evs))]); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
		if err := sup.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	retained := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(sup)
	runtime.KeepAlive(evs)
	t.Logf("the fleet retains %d bytes after one pass, ceiling %d", retained, retainedHeapCeiling)
	if retained > retainedHeapCeiling {
		t.Errorf("the fleet retains %d bytes after one pass, over the ceiling %d", retained, retainedHeapCeiling)
	}
}

// checkUnitMaps checks that every shard of DCN dcn routes through its own
// maps onto its (possibly shared) unit topology: each local link joins the
// local switches that map to its source link's endpoints, at the source
// stages, and shares a breakout cable with exactly the local links whose
// sources share the source link's. The shards' link maps must partition
// the DCN's links. It returns the distinct unit topologies in shard order.
func checkUnitMaps(t *testing.T, sup *Supervisor, dcn int) []*topology.Topology {
	t.Helper()
	src := sup.dcns[dcn].Topo
	owner := make([]int, src.NumLinks())
	for i := range owner {
		owner[i] = -1
	}
	var shapes []*topology.Topology
	for i, sh := range sup.shards[sup.dcnShards[dcn][0]:sup.dcnShards[dcn][1]] {
		sub := sh.sub
		if !slices.Contains(shapes, sub.Topo) {
			shapes = append(shapes, sub.Topo)
		}
		if sub.Topo.NumLinks() != len(sub.Links) || sub.Topo.NumSwitches() != len(sub.Switches) {
			t.Fatalf("shard %d: %d links and %d switches mapped onto a unit topology of %d and %d",
				i, len(sub.Links), len(sub.Switches), sub.Topo.NumLinks(), sub.Topo.NumSwitches())
		}
		for local, l := range sub.Links {
			if owner[l] >= 0 {
				t.Fatalf("source link %d in shards %d and %d", l, owner[l], i)
			}
			owner[l] = i
			lk, want := sub.Topo.Link(topology.LinkID(local)), src.Link(l)
			if sub.Switches[lk.Lower] != want.Lower || sub.Switches[lk.Upper] != want.Upper {
				t.Fatalf("shard %d link %d: endpoints map to (%d, %d), source link %d joins (%d, %d)",
					i, local, sub.Switches[lk.Lower], sub.Switches[lk.Upper], l, want.Lower, want.Upper)
			}
			if sub.Topo.Switch(lk.Lower).Stage != src.Switch(want.Lower).Stage {
				t.Fatalf("shard %d link %d: lower stage differs from the source's", i, local)
			}
			var got []topology.LinkID
			for _, sib := range sub.Topo.SameBreakout(topology.LinkID(local)) {
				got = append(got, sub.Links[sib])
			}
			slices.Sort(got)
			sibs := src.SameBreakout(l)
			slices.Sort(sibs)
			if !slices.Equal(got, sibs) {
				t.Fatalf("shard %d link %d: breakout siblings map to %v, source link %d's are %v", i, local, got, l, sibs)
			}
		}
	}
	if j := slices.Index(owner, -1); j >= 0 {
		t.Fatalf("source link %d is in no shard", j)
	}
	return shapes
}

// TestUnitTopologyShared holds the large Clos's 72 identical pods to one
// unit topology, whose counters keep counts for the 62 switches under the
// top stage and none for the pod's 144 spines.
func TestUnitTopologyShared(t *testing.T) {
	sup, err := New([]DCN{{Topo: largeClos(t)}}, Config{Workers: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if n := len(sup.shards); n != 72 {
		t.Fatalf("got %d shards, want one per pod (72)", n)
	}
	shapes := checkUnitMaps(t, sup, 0)
	if len(shapes) != 1 {
		t.Fatalf("72 identical pods got %d unit topologies, want 1", len(shapes))
	}
	if n, all := len(topology.NewPathCounter(shapes[0]).IncCounts()), shapes[0].NumSwitches(); n != 62 || all != 206 {
		t.Errorf("unit counter keeps %d counts for %d switches, want 62 of 206", n, all)
	}
}

// podFabric builds a three-stage fabric under four spines. Pod p has
// tors[p] ToRs and two aggs, each agg uplinked to every spine through
// breakout cables of cable[p] links. Group numbers run on across the
// fabric, as NewClos's do.
func podFabric(t *testing.T, tors, cable []int) *topology.Topology {
	t.Helper()
	b := topology.NewBuilder()
	var spines [4]topology.SwitchID
	for i := range spines {
		spines[i] = b.AddSwitch(fmt.Sprintf("spine-%d", i), 2, -1)
	}
	group := 0
	for p := range tors {
		aggs := [2]topology.SwitchID{
			b.AddSwitch(fmt.Sprintf("agg-%d-0", p), 1, p),
			b.AddSwitch(fmt.Sprintf("agg-%d-1", p), 1, p),
		}
		for i := 0; i < tors[p]; i++ {
			tor := b.AddSwitch(fmt.Sprintf("tor-%d-%d", p, i), 0, p)
			for _, agg := range aggs {
				b.AddLink(tor, agg, -1)
			}
		}
		for _, agg := range aggs {
			for j, spine := range spines {
				b.AddLink(agg, spine, group+j/cable[p])
			}
			group += len(spines) / cable[p]
		}
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return topo
}

// TestUnitShapesDiffer holds units that differ to separate topologies: two
// fabrics whose middle pod differs from its outer two only in how its
// uplinks share breakout cables (pairs amid one cable of four, and the
// other way round), and one whose middle pod is a ToR short. The outer
// pods, whose group numbers differ but group the same links, share one.
// Each fleet matches one loop over its whole DCN, as in
// TestFleetMatchesWholeDCNLoop.
func TestUnitShapesDiffer(t *testing.T) {
	for name, topo := range map[string]*topology.Topology{
		"pairs-amid-fours": podFabric(t, []int{3, 3, 3}, []int{4, 2, 4}),
		"fours-amid-pairs": podFabric(t, []int{3, 3, 3}, []int{2, 4, 2}),
		"short":            podFabric(t, []int{3, 2, 3}, []int{2, 2, 2}),
	} {
		dcns := []DCN{{Name: name, Topo: topo}}
		sup, err := New(dcns, Config{Workers: 1})
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		shapes := checkUnitMaps(t, sup, 0)
		units := sup.shards[sup.dcnShards[0][0]:sup.dcnShards[0][1]]
		if len(shapes) != 2 || len(units) != 3 || units[0].sub.Topo != units[2].sub.Topo {
			t.Fatalf("%s: %d units on %d topologies, want 3 on 2 with the outer pods sharing", name, len(units), len(shapes))
		}
		var reopt, blocked int
		for _, seed := range []uint64{42, 7, 1, 2} {
			evs := synthesizeEvents(dcns, seed, 1500)
			sup, snap := runFleet(t, dcns, evs, 2, 300)
			net, loop, want := wholeDCNLoop(t, topo, 0.5, evs)
			if got := sup.Disabled(0); !slices.Equal(got, linksOf(net.DisabledLinks())) {
				t.Errorf("%s seed %d: fleet has %v down, whole-DCN loop %v", name, seed, got, linksOf(net.DisabledLinks()))
			}
			got := snap.PerDCN[0]
			got.Name, got.Links, got.Segments, got.ToRs, got.Penalty = "", 0, 0, 0, 0
			if got != want {
				t.Errorf("%s seed %d: fleet tallies %+v, whole-DCN loop %+v", name, seed, got, want)
			}
			if ws := loop.TicketStats(); snap.TicketsResolved != ws.Resolved || snap.TicketsOpen != ws.Open {
				t.Errorf("%s seed %d: fleet tickets %d resolved, %d open; whole-DCN loop %d, %d",
					name, seed, snap.TicketsResolved, snap.TicketsOpen, ws.Resolved, ws.Open)
			}
			reopt += want.ReoptDisabled
			blocked += want.Blocked
		}
		if reopt == 0 || blocked == 0 {
			t.Errorf("%s: streams re-optimized %d links and blocked %d: a decision path is not exercised", name, reopt, blocked)
		}
	}
}
