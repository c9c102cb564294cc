package sim

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
	// exempt, on a root with no isolated pass, says what allocates by design
	// and where the cost is measured instead; such a row has no setup.
	exempt string
	// setup builds the row's inputs once and returns one full pass over them.
	setup func(tb testing.TB) (pass func())
}

var hotpathFloors = []hotpathFloor{{
	// The per-event settle over a network with every seventh link
	// corrupting, so the sum it reads is non-trivial. No `lint:allow
	// hotalloc` site is on this path.
	name:  "settle",
	roots: []string{"(*Sim).settle"},
	setup: func(tb testing.TB) func() {
		topo := simTopo(tb)
		s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, Seed: 11})
		if err != nil {
			tb.Fatal(err)
		}
		for l := 0; l < topo.NumLinks(); l += 7 {
			s.net.SetCorruption(topology.LinkID(l), 1e-4)
		}
		return func() {
			if s.settle(); s.lastPenalty <= 0 {
				tb.Fatalf("settled penalty %v, want > 0", s.lastPenalty)
			}
		}
	},
}, {
	name:   "sample",
	roots:  []string{"(*Sim).sample"},
	exempt: "appends one Sample per sampling interval into the output series; measured inside BenchmarkSimEventLoop",
}, {
	name:   "accrue",
	roots:  []string{"(*Sim).accrue"},
	exempt: "grows PenaltyPerDay once per simulated day; measured inside BenchmarkSimEventLoop",
}}

func TestHotpathFloors(t *testing.T) {
	for _, f := range hotpathFloors {
		t.Run(f.name, func(t *testing.T) {
			if f.setup == nil {
				t.Skip(f.exempt)
			}
			if n := testing.AllocsPerRun(1, f.setup(t)); n != 0 {
				t.Errorf("%v allocs in one steady-state pass, want 0", n)
			}
		})
	}
}
