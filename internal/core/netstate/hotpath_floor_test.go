package netstate

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
	// The penalty accumulator over the paper's medium DCN's 15,120 links:
	// every link's rate is moved (alternating between two values, so each
	// pass folds a real delta) and the amortised sum read after each move,
	// rebuild epochs included.
	name:  "penalty",
	roots: []string{"(*Penalty).Update", "(*Penalty).Sum"},
	setup: func(tb testing.TB) func() {
		const numLinks = 15120
		links := NewLinks(numLinks, 1e-6)
		var pen Penalty
		pen.Register(func(rate float64) float64 { return rate }, &links, topology.LinkSetView{})
		rate := 1e-4
		return func() {
			rate = 3e-4 - rate
			sum := 0.0
			for l := topology.LinkID(0); l < numLinks; l++ {
				links.Set(l, rate, false)
				pen.Update(l, rate, false)
				sum += pen.Sum(&links)
			}
			if sum <= 0 {
				tb.Fatalf("penalty sums add up to %v", sum)
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
