package tickets

import (
	"testing"
	"time"

	"corropt/internal/faults"
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
	// One ticket opened and resolved on each of 4,096 links, with no Reset
	// between passes: the warm-up pass fills the ticket arena and the
	// per-link tallies, and Resolve recycles each ticket for the next Open.
	// Every other ticket fails, so attempt numbering and both tallies move.
	name:  "open_resolve",
	roots: []string{"(*Queue).Open", "(*Queue).Resolve"},
	setup: func(tb testing.TB) func() {
		q := NewQueue(QueueConfig{})
		now := time.Duration(0)
		return func() {
			for l := topology.LinkID(0); l < 4096; l++ {
				t, done := q.Open(l, faults.ActionCleanFiber, now)
				if err := q.Resolve(t, done, faults.ActionCleanFiber, l%2 == 0); err != nil {
					tb.Fatal(err)
				}
				now = done
			}
			if q.OpenCount() != 0 {
				tb.Fatalf("%d tickets still open", q.OpenCount())
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
