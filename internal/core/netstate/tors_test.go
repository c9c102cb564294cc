package netstate

import (
	"testing"

	"corropt/internal/topology"
)

// TestToRsOwnConstraints pins the uniform constraint: a ToRs keeps no
// per-ToR slot until SetConstraint gives one ToR its own, every other ToR
// then keeps the uniform value, and Reset returns to uniform while keeping
// the slots' storage, so a pooled network's Reset and SetConstraint
// allocate nothing.
func TestToRsOwnConstraints(t *testing.T) {
	topo, err := topology.NewClos(topology.ClosConfig{
		Pods: 2, ToRsPerPod: 3, AggsPerPod: 2, Spines: 2, SpineUplinksPerAgg: 1, BreakoutSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pc := topology.NewPathCounter(topo)
	tors := topo.ToRs()
	s := NewToRs(topo, 0.5, pc)
	if s.own != nil {
		t.Fatalf("a uniform network keeps %d per-ToR constraints", len(s.own))
	}
	// Half the spine paths of the first ToR go down: it meets 0.5, not 0.75.
	pc.Apply(topo.Uplinks(tors[0])[0])
	s.Recompute(pc)
	s.SetConstraint(tors[0], 0.75, pc)
	for i, tor := range tors {
		want := 0.5
		if i == 0 {
			want = 0.75
		}
		if got := s.Constraint(tor); got != want {
			t.Errorf("ToR %d: constraint %v, want %v", tor, got, want)
		}
	}
	if s.NumViolated() != 1 || s.Met(tors[0]) {
		t.Errorf("%d ToRs violated, first met %v; want 1 and false", s.NumViolated(), s.Met(tors[0]))
	}

	cycle := func() {
		s.Reset(0.5, pc)
		s.SetConstraint(tors[1], 0.25, pc)
	}
	if n := testing.AllocsPerRun(10, cycle); n != 0 {
		t.Errorf("Reset and SetConstraint of a pooled ToRs allocate %v times", n)
	}
	s.Reset(0.25, pc)
	if len(s.own) != 0 || cap(s.own) != len(tors) {
		t.Errorf("after Reset: %d per-ToR constraints in %d slots, want 0 in %d", len(s.own), cap(s.own), len(tors))
	}
	for _, tor := range tors {
		if got := s.Constraint(tor); got != 0.25 {
			t.Errorf("after Reset: ToR %d constraint %v, want 0.25", tor, got)
		}
	}
	if s.NumViolated() != 0 {
		t.Errorf("after Reset to 0.25: %d ToRs violated, want 0", s.NumViolated())
	}
}
