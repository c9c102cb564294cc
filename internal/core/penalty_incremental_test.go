package core

import (
	"math"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// penaltyTestTopo builds a small Clos for the differential tests.
func penaltyTestTopo(t testing.TB) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 3, ToRsPerPod: 4, AggsPerPod: 3,
		Spines: 9, SpineUplinksPerAgg: 3, BreakoutSize: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// drift reports the relative disagreement between the incremental sum and
// the reference scan.
func drift(inc, ref float64) float64 {
	diff := math.Abs(inc - ref)
	if diff == 0 {
		return 0
	}
	scale := math.Max(math.Abs(inc), math.Abs(ref))
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// TestPenaltyIncrementalDifferential drives a long randomized sequence of
// SetCorruption / Disable / Enable operations and pins the O(1)-maintained
// PenaltySum to the fresh O(#links) TotalPenalty scan after every step:
// within a tight accumulation tolerance between rebuild epochs, and exactly
// (bit-for-bit) immediately after each exact rebuild.
func TestPenaltyIncrementalDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    PenaltyFunc
	}{
		{"linear", LinearPenalty},
		{"tcp-throughput", TCPThroughputPenalty},
		{"step", StepPenalty(1e-5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := penaltyTestTopo(t)
			net, err := NewNetwork(topo, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			// Pre-existing corruption so registration starts non-trivial.
			rng := rngutil.New(7).Split("penalty-" + tc.name)
			for i := 0; i < 10; i++ {
				net.SetCorruption(topology.LinkID(rng.Intn(topo.NumLinks())), math.Pow(10, rng.Range(-8, -2)))
			}
			net.RegisterPenalty(tc.p)
			if got, want := net.PenaltySum(), net.TotalPenalty(tc.p); got != want {
				t.Fatalf("after RegisterPenalty: PenaltySum = %v, TotalPenalty = %v", got, want)
			}

			const steps = 5000
			const tol = 1e-12
			for i := 0; i < steps; i++ {
				l := topology.LinkID(rng.Intn(topo.NumLinks()))
				switch rng.Intn(5) {
				case 0:
					net.SetCorruption(l, math.Pow(10, rng.Range(-9, -2)))
				case 1:
					net.SetCorruption(l, 0)
				case 2:
					net.Disable(l)
				case 3:
					net.Enable(l)
				case 4:
					// Re-set to the same value: must be a no-op.
					net.SetCorruption(l, net.CorruptionRate(l))
				}
				inc, ref := net.PenaltySum(), net.TotalPenalty(tc.p)
				if d := drift(inc, ref); d > tol {
					t.Fatalf("step %d: PenaltySum = %v, TotalPenalty = %v (relative drift %g > %g)", i, inc, ref, d, tol)
				}
			}

			// Force an exact rebuild epoch and require bitwise equality.
			// Only updates that change a contribution count toward the
			// epoch, so drive an enabled link until the budget is spent.
			for done := 0; done < penaltyRebuildEvery+1; {
				l := topology.LinkID(done % topo.NumLinks())
				if net.Disabled(l) {
					net.Enable(l)
				}
				net.SetCorruption(l, math.Pow(10, rng.Range(-7, -3)))
				done++
			}
			if got, want := net.PenaltySum(), net.TotalPenalty(tc.p); got != want {
				t.Fatalf("after rebuild epoch: PenaltySum = %v, TotalPenalty = %v (must be bit-identical)", got, want)
			}
		})
	}
}

// TestPenaltyAccountingAcrossResetState pins the incremental sum across a
// wholesale disabled-set replacement (LoadState path).
func TestPenaltyAccountingAcrossResetState(t *testing.T) {
	topo := penaltyTestTopo(t)
	net, err := NewNetwork(topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	net.RegisterPenalty(LinearPenalty)
	rng := rngutil.New(11).Split("reset")
	for i := 0; i < 25; i++ {
		net.SetCorruption(topology.LinkID(rng.Intn(topo.NumLinks())), math.Pow(10, rng.Range(-6, -2)))
	}
	var disabled []topology.LinkID
	for i := 0; i < 8; i++ {
		disabled = append(disabled, topology.LinkID(rng.Intn(topo.NumLinks())))
	}
	net.resetState(disabled)
	if got, want := net.PenaltySum(), net.TotalPenalty(LinearPenalty); got != want {
		t.Fatalf("after resetState: PenaltySum = %v, TotalPenalty = %v", got, want)
	}
}

// TestPenaltySumRequiresRegistration documents the contract: PenaltySum
// without RegisterPenalty is a programming error.
func TestPenaltySumRequiresRegistration(t *testing.T) {
	topo := penaltyTestTopo(t)
	net, err := NewNetwork(topo, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PenaltySum without RegisterPenalty did not panic")
		}
	}()
	net.PenaltySum()
}

// mediumNetwork builds a healthy Network at c = 0.75 over the paper's
// O(15K)-link medium DCN (15,120 links).
func mediumNetwork(b testing.TB) *Network {
	b.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 45, ToRsPerPod: 40, AggsPerPod: 6,
		Spines: 96, SpineUplinksPerAgg: 16, BreakoutSize: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	net, err := NewNetwork(topo, 0.75)
	if err != nil {
		b.Fatal(err)
	}
	return net
}
