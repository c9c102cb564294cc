package core

// Differential tests for the scoped + incremental path-counting engine as
// wired through Network, FastChecker, and Optimizer: every fast path must
// agree bit-exactly with the legacy full-recount semantics, and the
// incremental bookkeeping (NumDisabled, per-ToR constraint status) must
// never drift from a from-scratch recomputation.

import (
	"bytes"
	"math"
	"testing"

	"corropt/internal/rngutil"
	"corropt/internal/topology"
)

// referenceCanDisable is the pre-incremental fast check: one full path
// count sweep with the candidate disabled, restricted to its downstream
// ToRs.
func referenceCanDisable(net *Network, l topology.LinkID) bool {
	if net.Disabled(l) {
		return true
	}
	topo := net.Topology()
	pc := topology.NewPathCounter(topo)
	counts := pc.Count(func(x topology.LinkID) bool { return net.Disabled(x) || x == l })
	total := pc.Total()
	for _, tor := range topo.DownstreamToRs(l) {
		if !net.tors.Meets(tor, counts, total) {
			return false
		}
	}
	return true
}

func TestFastCheckerMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		net := randomCorruptionScenario(t, seed+500, 12)
		fc := NewFastChecker(net)
		rng := rngutil.New(seed)
		topo := net.Topology()
		for step := 0; step < 200; step++ {
			l := topology.LinkID(rng.Intn(topo.NumLinks()))
			got, want := fc.CanDisable(l), referenceCanDisable(net, l)
			if got != want {
				t.Fatalf("seed %d step %d: CanDisable(%d) = %v, reference %v (disabled=%d)",
					seed, step, l, got, want, net.NumDisabled())
			}
			// Mutate state: sometimes commit the disable, sometimes toggle
			// an arbitrary link to push the network into awkward corners
			// (including states with violated ToRs, which exercise the
			// slow path of the incremental check).
			switch rng.Intn(4) {
			case 0:
				if got {
					net.Disable(l)
				}
			case 1:
				net.Disable(topology.LinkID(rng.Intn(topo.NumLinks())))
			case 2:
				net.Enable(topology.LinkID(rng.Intn(topo.NumLinks())))
			}
		}
	}
}

// TestNetworkIncrementalConsistency drives random Disable/Enable sequences
// and asserts the incrementally-maintained state (NumDisabled, violated-ToR
// status, capacity metrics) matches a from-scratch recomputation.
func TestNetworkIncrementalConsistency(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		net := randomCorruptionScenario(t, seed+900, 8)
		topo := net.Topology()
		rng := rngutil.New(seed + 31)
		ref := topology.NewPathCounter(topo)
		for step := 0; step < 300; step++ {
			l := topology.LinkID(rng.Intn(topo.NumLinks()))
			if rng.Intn(2) == 0 {
				net.Disable(l)
			} else {
				net.Enable(l)
			}
			// NumDisabled vs scan.
			want := 0
			for x := 0; x < topo.NumLinks(); x++ {
				if net.Disabled(topology.LinkID(x)) {
					want++
				}
			}
			if got := net.NumDisabled(); got != want {
				t.Fatalf("seed %d step %d: NumDisabled = %d, scan = %d", seed, step, got, want)
			}
			// Capacity metrics vs fresh full sweep.
			counts := ref.Count(net.DisabledFunc())
			total := ref.Total()
			worst, sum := 1.0, 0.0
			violated := 0
			for _, tor := range topo.ToRs() {
				var f float64
				if total[tor] > 0 {
					f = float64(counts[tor]) / float64(total[tor])
				}
				if f < worst {
					worst = f
				}
				sum += f
				if !net.tors.Meets(tor, counts, total) {
					violated++
				}
			}
			if got := net.WorstToRFraction(); got != worst {
				t.Fatalf("seed %d step %d: WorstToRFraction = %v, want %v", seed, step, got, worst)
			}
			if got, want := net.MeanToRFraction(), sum/float64(len(topo.ToRs())); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: MeanToRFraction = %v, want %v", seed, step, got, want)
			}
			if got := len(net.ViolatedToRs(nil)); got != violated {
				t.Fatalf("seed %d step %d: ViolatedToRs = %d, recompute = %d", seed, step, got, violated)
			}
			if net.Feasible(nil) != (violated == 0) {
				t.Fatalf("seed %d step %d: Feasible(nil) inconsistent", seed, step)
			}
		}
	}
}

// TestLoadStateRebuildsIncrementalState round-trips through SaveState and
// checks the derived state is rebuilt, not stale.
func TestLoadStateRebuildsIncrementalState(t *testing.T) {
	src := randomCorruptionScenario(t, 1234, 10)
	topo := src.Topology()
	rng := rngutil.New(55)
	for i := 0; i < 20; i++ {
		src.Disable(topology.LinkID(rng.Intn(topo.NumLinks())))
	}
	var buf bytes.Buffer
	if err := src.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := NewNetwork(topo, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	dst.Disable(topology.LinkID(0)) // pre-existing state to be replaced
	if err := dst.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.NumDisabled() != src.NumDisabled() {
		t.Fatalf("NumDisabled after load = %d, want %d", dst.NumDisabled(), src.NumDisabled())
	}
	if got, want := dst.WorstToRFraction(), src.WorstToRFraction(); got != want {
		t.Fatalf("WorstToRFraction after load = %v, want %v", got, want)
	}
	if got, want := len(dst.ViolatedToRs(nil)), len(src.ViolatedToRs(nil)); got != want {
		t.Fatalf("ViolatedToRs after load = %d, want %d", got, want)
	}
}

// FuzzFastCheckDifferential fuzzes the incremental fast check against the
// full-recount reference across random disable states.
func FuzzFastCheckDifferential(f *testing.F) {
	f.Add(uint64(1), []byte{1, 2, 3})
	f.Add(uint64(9), []byte{0xff, 0x10})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		net := randomCorruptionScenario(t, seed, 6)
		fc := NewFastChecker(net)
		topo := net.Topology()
		for _, b := range ops {
			l := topology.LinkID(int(b) % topo.NumLinks())
			switch b % 3 {
			case 0:
				if fc.CanDisable(l) != referenceCanDisable(net, l) {
					t.Fatalf("CanDisable(%d) diverged", l)
				}
			case 1:
				net.Disable(l)
			case 2:
				net.Enable(l)
			}
		}
	})
}
