package topology

import "testing"

// hotpathFloor is one row of the package's measured 0-allocation floors:
// the //lint:hotpath roots it holds (display names, as the escapes analyzer
// prints them) and the pass that exercises them. The escapes analyzer holds
// the same roots' call chains to the compiler's escape verdicts, which
// cannot see append growth; the floor measures it. internal/analysis's
// TestHotpathFloorsCoverRoots reads the roots out of this table with
// go/parser and requires annotated roots == rows in both directions, so the
// two cannot drift apart.
type hotpathFloor struct {
	name  string
	roots []string
	// setup builds the row's inputs once and returns one full pass over them.
	setup func(tb testing.TB) (pass func())
}

var hotpathFloors = []hotpathFloor{{
	// One Apply+Revert delta pair — the unit of work of the fast checker's
	// probe and the optimizer DFS's branch step — per uplink of one ToR on
	// the paper's large DCN (34,560 links). The warm-up pass grows
	// propagate's scratch to steady capacity: the per-stage buckets and
	// the changedToRs list.
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
		links := topo.Uplinks(topo.ToRs()[0])
		return func() {
			for _, l := range links {
				if len(pc.Apply(l)) == 0 || len(pc.Revert(l)) == 0 {
					tb.Fatalf("toggling uplink %d changed no ToR", l)
				}
			}
		}
	},
}, {
	// The fast checker's and the optimizer's unit of work on the same DCN:
	// a probe of every uplink of one aggregation switch (each cone is the
	// pod's 56 ToRs), the even ones dropped by the next probe and the odd
	// ones committed, then the committed ones reverted for the next pass.
	name:  "probe_commit",
	roots: []string{"(*PathCounter).Probe", "(*PathCounter).Commit"},
	setup: func(tb testing.TB) func() {
		topo, err := NewClos(ClosConfig{
			Pods: 72, ToRsPerPod: 56, AggsPerPod: 6,
			Spines: 144, SpineUplinksPerAgg: 24, BreakoutSize: 4,
		})
		if err != nil {
			tb.Fatal(err)
		}
		pc := NewPathCounter(topo)
		agg := topo.Link(topo.Uplinks(topo.ToRs()[0])[0]).Upper
		links := topo.Uplinks(agg)
		return func() {
			for i, l := range links {
				if len(pc.Probe(l)) == 0 {
					tb.Fatalf("probing uplink %d changed no ToR", l)
				}
				if i%2 == 1 && len(pc.Commit()) == 0 {
					tb.Fatalf("committing uplink %d changed no ToR", l)
				}
			}
			for i := 1; i < len(links); i += 2 {
				pc.Revert(links[i])
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
