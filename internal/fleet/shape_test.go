package fleet

import (
	"runtime"
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
// and the skeleton per shard, read 1,941,104 bytes (and fails it); this
// tree reads 819,864.
const extraDCNAllocCeiling = 1_100_000

// TestExtraDCNAllocCeiling measures the TotalAlloc difference between New
// over two and over one DCN of the large Clos (34,560 links, one shard per
// pod): the shape's partition and shard set are built in both, so the
// difference is what the second DCN alone costs.
func TestExtraDCNAllocCeiling(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
		Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	allocOf := func(n int) uint64 {
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
	extra := allocOf(2) - allocOf(1)
	t.Logf("one extra same-shape DCN allocates %d bytes, ceiling %d", extra, extraDCNAllocCeiling)
	if extra > extraDCNAllocCeiling {
		t.Errorf("one extra same-shape DCN allocates %d bytes, over the ceiling %d", extra, extraDCNAllocCeiling)
	}
}
