package fleet

import (
	"testing"

	"corropt/internal/topology"
)

// hotpathFloor is one row of the package's measured 0-allocation floors; the
// contract, and the negative control for AllocsPerRun(1, pass), are in
// internal/topology/hotpath_floor_test.go.
type hotpathFloor struct {
	name  string
	roots []string
	// setup builds the row's inputs once and returns one full pass over them.
	setup func(tb testing.TB) (pass func())
}

var hotpathFloors = []hotpathFloor{{
	// Per-event ingress — validation, shard lookup and the pending-queue
	// append — of a 200,000-event stream over 30 DCNs sharing the 34,560-link
	// large Clos (1,036,800 links; the paper's 15 DCNs hold ~350K). Flush
	// allocates, so it cannot sit between AllocsPerRun's two calls of the
	// pass: setup ingests the stream twice before its one Flush, which leaves
	// every shard's pending queue — Route's append — with room for both. The
	// reject paths' error construction carries `lint:allow escapes` and is
	// not on this path.
	name:  "route",
	roots: []string{"(*Supervisor).Route"},
	setup: func(tb testing.TB) func() {
		topo, err := topology.NewClos(topology.ClosConfig{
			Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
			Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
		})
		if err != nil {
			tb.Fatal(err)
		}
		dcns := make([]DCN, 30)
		for i := range dcns {
			dcns[i] = DCN{Topo: topo}
		}
		evs := synthesizeEvents(dcns, 99, 200_000)
		sup, err := New(dcns, Config{Workers: 1})
		if err != nil {
			tb.Fatalf("New: %v", err)
		}
		for range 2 {
			if err := sup.Ingest(evs); err != nil {
				tb.Fatalf("warm-up Ingest: %v", err)
			}
		}
		if err := sup.Flush(); err != nil {
			tb.Fatalf("warm-up Flush: %v", err)
		}
		return func() {
			for _, ev := range evs {
				if err := sup.Route(ev); err != nil {
					tb.Fatalf("Route: %v", err)
				}
			}
		}
	},
}}

func TestHotpathFloors(t *testing.T) {
	for _, f := range hotpathFloors {
		t.Run(f.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1, f.setup(t)); n != 0 {
				t.Errorf("%v allocs in one steady-state pass, want 0", n)
			}
		})
	}
}
