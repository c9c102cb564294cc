package topology

import (
	"runtime"
	"testing"
)

// TestTopologyRetainedBytes bounds the heap one built topology keeps on the
// paper's medium (15,120 links) and large (34,560 links) DCNs, measured as
// the live heap NewClos adds after runtime.GC. A topology stores each fact
// once and exactly sized: one 20-byte Link per link, one adjacency array of
// two ids per link, one Switch per switch and no name index, so a per-switch
// slice header, a name map or append slack past the exact lengths fails it.
func TestTopologyRetainedBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the large DCN")
	}
	for _, row := range []struct {
		name  string
		cfg   ClosConfig
		bound uint64
	}{
		{"medium", ClosConfig{Pods: 45, ToRsPerPod: 40, AggsPerPod: 6, Spines: 96, SpineUplinksPerAgg: 16, BreakoutSize: 4}, 650_000},
		{"large", ClosConfig{Pods: 72, ToRsPerPod: 56, AggsPerPod: 6, Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4}, 1_500_000},
	} {
		t.Run(row.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			topo, err := NewClos(row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(topo)
			kept := after.HeapAlloc - before.HeapAlloc
			t.Logf("%d B retained (%.1f B/link), bound %d", kept, float64(kept)/float64(topo.NumLinks()), row.bound)
			if kept > row.bound {
				t.Errorf("%d bytes retained, want ≤ %d", kept, row.bound)
			}
		})
	}
}
