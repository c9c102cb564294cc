package core

import (
	"testing"

	"corropt/internal/rngutil"
)

func TestFormulaValidate(t *testing.T) {
	ok := Formula{NumVars: 2, Clauses: []Clause{{1, -2, 1}}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Formula{
		{NumVars: 0, Clauses: []Clause{{1, 1, 1}}},
		{NumVars: 2},
		{NumVars: 2, Clauses: []Clause{{1, 2, 3}}},
		{NumVars: 2, Clauses: []Clause{{1, 0, 2}}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad formula %d accepted", i)
		}
	}
}

func TestSatisfiableBruteForce(t *testing.T) {
	sat := Formula{NumVars: 2, Clauses: []Clause{{1, 2, 2}, {-1, 2, 2}}}
	if !sat.Satisfiable() {
		t.Fatal("satisfiable formula rejected")
	}
	// x ∧ ¬x in every combination of a single variable.
	unsat := Formula{NumVars: 1, Clauses: []Clause{{1, 1, 1}, {-1, -1, -1}}}
	if unsat.Satisfiable() {
		t.Fatal("unsatisfiable formula accepted")
	}
}

func TestGadgetSatisfiable(t *testing.T) {
	// (x1 ∨ x2 ∨ ¬x3) ∧ (¬x1 ∨ x2 ∨ x3) ∧ (x1 ∨ ¬x2 ∨ x3): satisfiable.
	f := Formula{NumVars: 3, Clauses: []Clause{
		{1, 2, -3}, {-1, 2, 3}, {1, -2, 3},
	}}
	if !f.Satisfiable() {
		t.Fatal("test formula should be satisfiable")
	}
	g, err := BuildGadget(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.FaultyLinks); got != 2*f.NumVars {
		t.Fatalf("faulty links = %d, want %d", got, 2*f.NumVars)
	}
	n := g.MaxDisabled()
	if n != f.NumVars {
		t.Fatalf("optimizer disabled %d faulty links, want %d", n, f.NumVars)
	}
	if !g.AssignmentSatisfies() {
		t.Fatalf("extracted assignment %v does not satisfy the formula", g.Assignment())
	}
}

func TestGadgetUnsatisfiable(t *testing.T) {
	// Encode x1 ∧ ¬x1 via duplicated literals.
	f := Formula{NumVars: 1, Clauses: []Clause{{1, 1, 1}, {-1, -1, -1}}}
	g, err := BuildGadget(f)
	if err != nil {
		t.Fatal(err)
	}
	n := g.MaxDisabled()
	if n >= f.NumVars {
		t.Fatalf("optimizer disabled %d links on an unsatisfiable instance, want < %d", n, f.NumVars)
	}
}

// randomFormula builds a random 3-SAT instance with the given dimensions.
func randomFormula(rng *rngutil.Source, vars, clauses int) Formula {
	f := Formula{NumVars: vars}
	for i := 0; i < clauses; i++ {
		var c Clause
		for j := range c {
			v := rng.Intn(vars) + 1
			if rng.Bool(0.5) {
				v = -v
			}
			c[j] = Literal(v)
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

func TestGadgetMatchesSATOracle(t *testing.T) {
	// Property: optimizer disables exactly NumVars faulty links iff the
	// formula is satisfiable (Lemma A.1), across random instances near the
	// sat/unsat threshold (clauses ≈ 4.3 × vars).
	rng := rngutil.New(2024)
	satSeen, unsatSeen := 0, 0
	for i := 0; i < 60; i++ {
		vars := 2 + rng.Intn(4)
		clauses := vars*4 + rng.Intn(4)
		f := randomFormula(rng, vars, clauses)
		g, err := BuildGadget(f)
		if err != nil {
			t.Fatal(err)
		}
		n := g.MaxDisabled()
		want := f.Satisfiable()
		if want {
			satSeen++
			if n != vars {
				t.Fatalf("instance %d: satisfiable but optimizer disabled %d of %d", i, n, vars)
			}
			if !g.AssignmentSatisfies() {
				t.Fatalf("instance %d: assignment does not satisfy", i)
			}
		} else {
			unsatSeen++
			if n >= vars {
				t.Fatalf("instance %d: unsatisfiable but optimizer disabled %d ≥ %d", i, n, vars)
			}
		}
	}
	if satSeen == 0 || unsatSeen == 0 {
		t.Fatalf("weak test coverage: %d sat / %d unsat instances", satSeen, unsatSeen)
	}
}

func TestGadgetNeverDisconnects(t *testing.T) {
	rng := rngutil.New(7)
	for i := 0; i < 20; i++ {
		f := randomFormula(rng, 3, 10)
		g, err := BuildGadget(f)
		if err != nil {
			t.Fatal(err)
		}
		g.MaxDisabled()
		// Every ToR must keep at least one path.
		counts := g.Net.pc.Count(g.Net.DisabledFunc())
		for _, tor := range g.Net.Topology().ToRs() {
			if counts[tor] < 1 {
				t.Fatalf("instance %d: ToR %s disconnected", i, g.Net.Topology().Switch(tor).Name)
			}
		}
	}
}
