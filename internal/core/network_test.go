package core

import (
	"testing"

	"corropt/internal/topology"
)

func smallClos(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 2, AggsPerPod: 2, Spines: 4, SpineUplinksPerAgg: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestNewNetworkValidation(t *testing.T) {
	topo := smallClos(t)
	if _, err := NewNetwork(topo, -0.1); err == nil {
		t.Fatal("negative constraint accepted")
	}
	if _, err := NewNetwork(topo, 1.1); err == nil {
		t.Fatal("constraint > 1 accepted")
	}
	n, err := NewNetwork(topo, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tor := range topo.ToRs() {
		if n.Constraint(tor) != 0.5 {
			t.Fatal("default constraint not applied")
		}
	}
}

func TestSetToRConstraint(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	tor := topo.ToRs()[0]
	if err := n.SetToRConstraint(tor, 0.75); err != nil {
		t.Fatal(err)
	}
	if n.Constraint(tor) != 0.75 {
		t.Fatal("constraint not updated")
	}
	spine := topo.Spines()[0]
	if err := n.SetToRConstraint(spine, 0.5); err == nil {
		t.Fatal("non-ToR constraint accepted")
	}
	if err := n.SetToRConstraint(tor, 2); err == nil {
		t.Fatal("out-of-range constraint accepted")
	}
}

func TestDisableEnable(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	if n.NumDisabled() != 0 {
		t.Fatal("fresh network has disabled links")
	}
	n.Disable(0)
	if !n.Disabled(0) || n.NumDisabled() != 1 {
		t.Fatal("Disable did not stick")
	}
	n.Enable(0)
	if n.Disabled(0) || n.NumDisabled() != 0 {
		t.Fatal("Enable did not stick")
	}
}

func TestViolatedToRs(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.75)
	if got := n.ViolatedToRs(nil); len(got) != 0 {
		t.Fatalf("healthy network violates constraints: %v", got)
	}
	// Disabling one of a ToR's two agg uplinks halves its paths: 0.5 < 0.75.
	tor := topo.ToRs()[0]
	l := topo.Uplinks(tor)[0]
	violated := n.ViolatedToRs(map[topology.LinkID]bool{l: true})
	if len(violated) != 1 || violated[0] != tor {
		t.Fatalf("violated = %v, want [%d]", violated, tor)
	}
	if n.Feasible(map[topology.LinkID]bool{l: true}) {
		t.Fatal("Feasible contradicts ViolatedToRs")
	}
	// Per-ToR override: lowering this ToR's constraint legalizes it.
	if err := n.SetToRConstraint(tor, 0.5); err != nil {
		t.Fatal(err)
	}
	if !n.Feasible(map[topology.LinkID]bool{l: true}) {
		t.Fatal("per-ToR constraint not honored")
	}
}

func TestTotalPenalty(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	n.SetCorruption(0, 1e-3)
	n.SetCorruption(1, 1e-4)
	if got := n.TotalPenalty(LinearPenalty); got != 1e-3+1e-4 {
		t.Fatalf("penalty = %v", got)
	}
	n.Disable(0)
	if got := n.TotalPenalty(LinearPenalty); got != 1e-4 {
		t.Fatalf("penalty after disabling = %v", got)
	}
	n.SetCorruption(1, 0)
	if got := n.TotalPenalty(LinearPenalty); got != 0 {
		t.Fatalf("penalty after repair = %v", got)
	}
}

func TestActiveCorrupting(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	n.SetCorruption(2, 1e-3)
	n.SetCorruption(3, 1e-7)
	n.SetCorruption(4, 1e-5)
	n.Disable(4)
	active := n.ActiveCorrupting(1e-6)
	if len(active) != 1 || active[0] != 2 {
		t.Fatalf("active = %v, want [2]", active)
	}
}

func TestWorstAndMeanFractions(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	if n.WorstToRFraction() != 1 || n.MeanToRFraction() != 1 {
		t.Fatal("healthy network fractions != 1")
	}
	tor := topo.ToRs()[0]
	n.Disable(topo.Uplinks(tor)[0])
	if w := n.WorstToRFraction(); w != 0.5 {
		t.Fatalf("worst fraction = %v, want 0.5", w)
	}
	if m := n.MeanToRFraction(); m <= 0.5 || m >= 1 {
		t.Fatalf("mean fraction = %v, want in (0.5, 1)", m)
	}
}

func TestPenaltyFunctions(t *testing.T) {
	if LinearPenalty(0.01) != 0.01 {
		t.Fatal("LinearPenalty broken")
	}
	if TCPThroughputPenalty(0) != 0 {
		t.Fatal("TCP penalty at zero loss should be 0")
	}
	// Monotonic and bounded.
	prev := -1.0
	for _, r := range []float64{1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 1} {
		p := TCPThroughputPenalty(r)
		if p < prev || p < 0 || p > 1 {
			t.Fatalf("TCP penalty not monotone/bounded at %v: %v", r, p)
		}
		prev = p
	}
	step := StepPenalty(1e-6)
	if step(1e-7) != 0 || step(1e-6) != 1 || step(1e-3) != 1 {
		t.Fatal("StepPenalty broken")
	}
}

// TestNetworkReset pins that Reset restores a pooled Network to the exact
// observable state NewNetwork would construct, including after the penalty
// machinery and disabled set have been exercised.
func TestNetworkReset(t *testing.T) {
	topo := smallClos(t)
	n, _ := NewNetwork(topo, 0.5)
	n.RegisterPenalty(LinearPenalty)
	n.Disable(0)
	n.Disable(3)
	n.SetCorruption(1, 0.02)
	n.SetCorruption(3, 0.5)
	if err := n.SetToRConstraint(topo.ToRs()[0], 0.9); err != nil {
		t.Fatal(err)
	}

	if err := n.Reset(2); err == nil {
		t.Fatal("out-of-range constraint accepted by Reset")
	}
	if err := n.Reset(0.5); err != nil {
		t.Fatal(err)
	}
	fresh, _ := NewNetwork(topo, 0.5)
	if n.NumDisabled() != 0 || n.Disabled(0) || n.Disabled(3) {
		t.Fatal("Reset left links disabled")
	}
	if n.CorruptionRate(1) != 0 || n.CorruptionRate(3) != 0 {
		t.Fatal("Reset left corruption rates")
	}
	if n.PenaltyRegistered() {
		t.Fatal("Reset left a penalty function registered")
	}
	for _, tor := range topo.ToRs() {
		if n.Constraint(tor) != fresh.Constraint(tor) {
			t.Fatalf("ToR %d constraint %v after Reset, want %v",
				tor, n.Constraint(tor), fresh.Constraint(tor))
		}
	}
	if !n.Feasible(nil) || n.WorstToRFraction() != fresh.WorstToRFraction() {
		t.Fatal("Reset state differs from a fresh network")
	}

	// The penalty path must behave identically post-Reset (reused buffers).
	n.RegisterPenalty(LinearPenalty)
	fresh.RegisterPenalty(LinearPenalty)
	for _, net := range []*Network{n, fresh} {
		net.SetCorruption(2, 0.1)
		net.Disable(5)
		net.SetCorruption(5, 0.3)
	}
	if n.PenaltySum() != fresh.PenaltySum() {
		t.Fatalf("penalty sum after Reset: %v, fresh: %v", n.PenaltySum(), fresh.PenaltySum())
	}
}
