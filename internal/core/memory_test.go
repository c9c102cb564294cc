package core

import (
	"runtime"
	"testing"

	"corropt/internal/faults"
	"corropt/internal/optics"
	"corropt/internal/topology"
)

// TestRetainedBytesPerLink bounds the heap each per-link owner keeps on the
// paper's large DCN (34,560 links), measured as the live heap a fresh one
// adds after runtime.GC. Corruption strikes a small minority of links, so
// the owners keep dense state only where a link needs some: a bound is the
// reading rounded up to the next 4 bytes, so one more dense 4-byte array
// per link fails it.
func TestRetainedBytesPerLink(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the large DCN")
	}
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
		Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		bound float64 // bytes per link
		build func() any
	}{
		{"faults.NewState", 8, func() any { return faults.NewState(topo, optics.DefaultTechnologies()[0]) }},
		{"core.NewNetwork", 4, func() any {
			n, err := NewNetwork(topo, 0.75)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			v := row.build()
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(v)
			perLink := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(topo.NumLinks())
			t.Logf("%.2f B/link retained, bound %v", perLink, row.bound)
			if perLink > row.bound {
				t.Errorf("%.2f bytes per link retained, want ≤ %v", perLink, row.bound)
			}
		})
	}
}
