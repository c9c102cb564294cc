package core

import (
	"fmt"
	"testing"

	"corropt/internal/topology"
)

// fig10 builds the example of Figure 10: ToR T with five uplinks to
// aggregation switches A–E, each with five uplinks to distinct spines
// (25 ToR→spine paths), and a corrupting set of 16 links arranged so that
// the optimal solution disables 12 of them under a 60% capacity constraint:
// both of T's uplinks to A and B, all five spine uplinks of A and of B
// (free to disable once their ToR uplink is gone), plus four more corrupting
// links under C, D, and E that must stay.
func fig10(t *testing.T) (*Network, []topology.LinkID) {
	t.Helper()
	b := topology.NewBuilder()
	spines := make([]topology.SwitchID, 25)
	for i := range spines {
		spines[i] = b.AddSwitch(fmt.Sprintf("s%d", i), 2, -1)
	}
	aggs := make([]topology.SwitchID, 5)
	for i := range aggs {
		aggs[i] = b.AddSwitch(string(rune('A'+i)), 1, 0)
	}
	tor := b.AddSwitch("T", 0, 0)
	torUp := make([]topology.LinkID, 5)
	aggUp := make([][]topology.LinkID, 5)
	for i, agg := range aggs {
		torUp[i] = b.AddLink(tor, agg, -1)
		aggUp[i] = make([]topology.LinkID, 5)
		for j := 0; j < 5; j++ {
			aggUp[i][j] = b.AddLink(agg, spines[i*5+j], -1)
		}
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(topo, 0.60)
	if err != nil {
		t.Fatal(err)
	}
	var corrupting []topology.LinkID
	corrupting = append(corrupting, torUp[0], torUp[1])       // T→A, T→B
	corrupting = append(corrupting, aggUp[0]...)              // A's five
	corrupting = append(corrupting, aggUp[1]...)              // B's five
	corrupting = append(corrupting, aggUp[2][0], aggUp[2][1]) // two under C
	corrupting = append(corrupting, aggUp[3][0], aggUp[4][0]) // one under D, E
	for _, l := range corrupting {
		net.SetCorruption(l, 1e-3)
	}
	if len(corrupting) != 16 {
		t.Fatalf("fig10 corrupting set has %d links, want 16", len(corrupting))
	}
	return net, corrupting
}

func TestFig10NaiveSwitchLocalViolatesConstraint(t *testing.T) {
	// Figure 10(a): mapping the 60% capacity constraint directly onto the
	// per-switch threshold (sc = c) lets every switch disable 2 of its 5
	// uplinks — and leaves ToR T with far fewer than 60% of its paths.
	net, _ := fig10(t)
	sl, err := NewSwitchLocalRaw(net, 0.60)
	if err != nil {
		t.Fatal(err)
	}
	disabled := sl.Sweep(1e-6)
	if len(disabled) == 0 {
		t.Fatal("naive switch-local disabled nothing")
	}
	frac := net.WorstToRFraction()
	if frac >= 0.60 {
		t.Fatalf("naive switch-local kept fraction %v; the example requires a violation", frac)
	}
}

func TestFig10ConservativeSwitchLocalDisablesFew(t *testing.T) {
	// Figure 10(b): the safe mapping sc = √c ≈ 0.775 meets the constraint
	// but each 5-uplink switch may disable only ⌊5·0.225⌋ = 1 link.
	net, _ := fig10(t)
	sl, err := NewSwitchLocal(net, 0.60)
	if err != nil {
		t.Fatal(err)
	}
	if sc := sl.SC(); sc < 0.774 || sc > 0.776 {
		t.Fatalf("sc = %v, want √0.6 ≈ 0.7746", sc)
	}
	disabled := sl.Sweep(1e-6)
	if net.WorstToRFraction() < 0.60 {
		t.Fatal("conservative switch-local violated the constraint")
	}
	if len(disabled) > 6 {
		t.Fatalf("conservative switch-local disabled %d links; the example shows it can disable only a few", len(disabled))
	}
	// Strictly fewer than the optimum of 12.
	if len(disabled) >= 12 {
		t.Fatalf("switch-local disabled %d, should be far below the optimal 12", len(disabled))
	}
}

func TestFig10OptimizerFindsOptimal(t *testing.T) {
	// Figure 10(c): the optimal solution disables 12 of the 16 corrupting
	// links while keeping 15 of T's 25 paths (exactly 60%).
	net, _ := fig10(t)
	opt := NewOptimizer(net, LinearPenalty)
	disabled, st := opt.Run(1e-6)
	if len(disabled) != 12 {
		t.Fatalf("optimizer disabled %d links, want 12 (stats %+v)", len(disabled), st)
	}
	if frac := net.WorstToRFraction(); frac < 0.60 {
		t.Fatalf("optimizer violated the constraint: %v", frac)
	}
	if frac := net.WorstToRFraction(); frac != 0.60 {
		t.Fatalf("optimal solution should ride the limit exactly: %v", frac)
	}
}

func TestFig10FastCheckerBeatsSwitchLocal(t *testing.T) {
	// Even the fast checker, which is greedy, uses exact path counts and
	// therefore outperforms the conservative switch-local rule here.
	netFC, _ := fig10(t)
	fc := NewFastChecker(netFC)
	fcDisabled := fc.Sweep(1e-6)
	if netFC.WorstToRFraction() < 0.60 {
		t.Fatal("fast checker violated the constraint")
	}

	netSL, _ := fig10(t)
	sl, _ := NewSwitchLocal(netSL, 0.60)
	slDisabled := sl.Sweep(1e-6)

	if len(fcDisabled) <= len(slDisabled) {
		t.Fatalf("fast checker disabled %d, switch-local %d; expected the fast checker to win",
			len(fcDisabled), len(slDisabled))
	}
}
