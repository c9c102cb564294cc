package topology

import "testing"

// hotpathFloor is one row of the package's measured 0-allocation floors:
// the //lint:hotpath roots it holds (display names, as hotalloc prints
// them) and the pass that exercises them. The hotalloc analyzer proves the
// same roots allocation-free statically; internal/analysis's
// TestHotpathFloorsCoverRoots reads the roots out of this table with
// go/parser and requires annotated roots == rows in both directions, so the
// proof and the measurement cannot drift apart.
type hotpathFloor struct {
	name  string
	roots []string
	// setup builds the row's inputs once and returns one full pass over them.
	setup func(tb testing.TB) (pass func())
}

var hotpathFloors = []hotpathFloor{{
	// One Apply+Revert delta pair — the unit of work of the fast checker's
	// probe and the optimizer DFS's branch step — per uplink of one ToR on
	// the paper's large DCN (34,560 links). The warm-up pass covers
	// propagate's three `lint:allow hotalloc … steady capacity after warmup`
	// sites: the per-stage dirty buckets and the changedToRs scratch.
	name:  "apply_revert",
	roots: []string{"(*PathCounter).Apply", "(*PathCounter).Revert"},
	setup: func(tb testing.TB) func() {
		topo, err := NewClos(ClosConfig{
			Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
			Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
		})
		if err != nil {
			tb.Fatal(err)
		}
		pc := NewPathCounter(topo)
		links := topo.Switch(topo.ToRs()[0]).Uplinks
		return func() {
			for _, l := range links {
				if len(pc.Apply(l)) == 0 || len(pc.Revert(l)) == 0 {
					tb.Fatalf("toggling uplink %d changed no ToR", l)
				}
			}
		}
	},
}}

// TestHotpathFloors requires 0 allocations over one steady-state pass of each
// row, exactly. testing.AllocsPerRun calls the pass once unmeasured first —
// the warm-up that grows every scratch buffer to its steady capacity — and
// with runs == 1 reports the next call's mallocs undivided: a single
// allocation per pass reads 1, where an average over many runs would round
// it to 0.
func TestHotpathFloors(t *testing.T) {
	for _, f := range hotpathFloors {
		t.Run(f.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1, f.setup(t)); n != 0 {
				t.Errorf("%v allocs in one steady-state pass, want 0", n)
			}
		})
	}
}

var floorSink *int

// TestHotpathFloorCatchesOneAlloc is the negative control of every package's
// TestHotpathFloors: a pass that allocates once must read exactly 1.
func TestHotpathFloorCatchesOneAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(1, func() { floorSink = new(int) }); n != 1 {
		t.Fatalf("a pass that allocates once read %v allocs, want 1", n)
	}
}
