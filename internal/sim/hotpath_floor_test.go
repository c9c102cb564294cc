package sim

import (
	"testing"
	"time"

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

// corruptingSim builds a simulator over a network with every seventh link
// corrupting, so the penalty sum its roots read is non-trivial.
func corruptingSim(tb testing.TB) *Sim {
	topo := simTopo(tb)
	s, err := New(topo, simTech(), Config{Policy: PolicyCorrOpt, Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	for l := 0; l < topo.NumLinks(); l += 7 {
		s.net.SetCorruption(topology.LinkID(l), 1e-4)
	}
	s.settle()
	return s
}

var hotpathFloors = []hotpathFloor{{
	name:  "settle",
	roots: []string{"(*Sim).settle"},
	setup: func(tb testing.TB) func() {
		s := corruptingSim(tb)
		return func() {
			if s.settle(); s.lastPenalty <= 0 {
				tb.Fatalf("settled penalty %v, want > 0", s.lastPenalty)
			}
		}
	},
}, {
	// Two simulated days of hourly samples. Each pass rewinds the penalty
	// integral's clock and truncates the output series, so it replays the
	// same instants into the capacity the warm-up pass grew: Samples, and
	// PenaltyPerDay through accrue. The first sample also builds
	// ToRFractions' cache.
	name:  "sample",
	roots: []string{"(*Sim).sample"},
	setup: func(tb testing.TB) func() {
		s := corruptingSim(tb)
		return func() {
			s.lastAccrueAt, s.result.Samples = 0, s.result.Samples[:0]
			for at := time.Hour; at <= 48*time.Hour; at += time.Hour {
				s.sample(at)
			}
			if n := len(s.result.Samples); n != 48 {
				tb.Fatalf("%d samples, want 48", n)
			}
		}
	},
}, {
	// The penalty integral over three simulated days in 5 h steps, so
	// intervals split across midnight. Each pass rewinds lastAccrueAt and
	// replays the same instants into the day buckets the warm-up grew.
	name:  "accrue",
	roots: []string{"(*Sim).accrue"},
	setup: func(tb testing.TB) func() {
		s := corruptingSim(tb)
		return func() {
			s.lastAccrueAt = 0
			for at := 5 * time.Hour; at <= 72*time.Hour; at += 5 * time.Hour {
				s.accrue(at)
			}
			if n := len(s.result.PenaltyPerDay); n != 3 {
				tb.Fatalf("%d day buckets, want 3", n)
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
