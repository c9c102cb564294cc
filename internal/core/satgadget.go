package core

import (
	"fmt"

	"corropt/internal/topology"
)

// This file implements the Appendix A reduction proving Theorem 5.1:
// deciding which links to disable in a Clos topology so that the total
// corruption penalty is minimized under capacity constraints is NP-complete,
// via 3-SAT. Building the gadget as executable code serves two purposes:
// it documents the construction precisely, and it gives the test suite a
// family of adversarial inputs on which the optimizer's answer has a known
// ground truth (satisfiable ⟺ r faulty links can be disabled).

// Literal is a 3-SAT literal: +v for variable v, -v for its negation
// (variables are numbered from 1).
type Literal int

// Clause is a disjunction of exactly three literals.
type Clause [3]Literal

// Formula is a 3-SAT instance.
type Formula struct {
	NumVars int
	Clauses []Clause
}

// Validate checks that every literal references a declared variable.
func (f Formula) Validate() error {
	if f.NumVars <= 0 {
		return fmt.Errorf("core: formula needs at least one variable")
	}
	if len(f.Clauses) == 0 {
		return fmt.Errorf("core: formula needs at least one clause")
	}
	for i, c := range f.Clauses {
		for _, lit := range c {
			v := int(lit)
			if v < 0 {
				v = -v
			}
			if v == 0 || v > f.NumVars {
				return fmt.Errorf("core: clause %d references undeclared variable in literal %d", i, lit)
			}
		}
	}
	return nil
}

// Satisfiable decides the formula by brute force; it is exponential in
// NumVars and exists to cross-check the gadget in tests.
func (f Formula) Satisfiable() bool {
	for mask := 0; mask < 1<<uint(f.NumVars); mask++ {
		if f.satisfiedBy(mask) {
			return true
		}
	}
	return false
}

func (f Formula) satisfiedBy(mask int) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, lit := range c {
			v := int(lit)
			neg := false
			if v < 0 {
				v, neg = -v, true
			}
			val := mask&(1<<uint(v-1)) != 0
			if val != neg {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Gadget is the Appendix A construction instantiated for one formula.
type Gadget struct {
	// Net is the degraded pod: clause ToRs C_i wired to the aggregation
	// switches of their literals, helper ToRs H_j enforcing that at most
	// one of each literal pair loses its spine link, and one faulty
	// spine uplink per literal.
	Net *Network
	// FaultyLinks is L: the 2r corrupting aggregation→spine links, all
	// with identical corruption rates.
	FaultyLinks []topology.LinkID
	// LitLink maps each literal to its spine link; disabling the link
	// corresponds to assigning the literal false.
	LitLink map[Literal]topology.LinkID
	formula Formula
}

// gadgetRate is the common corruption rate of the faulty links; any
// positive value works since all penalties are equal.
const gadgetRate = 1e-3

// BuildGadget constructs the reduction for f. Following Lemma A.1 the
// gadget is the already-degraded pod: links the construction turns off are
// simply not built, and every ToR's capacity constraint demands only
// valley-free connectivity to the spine (at least one surviving path).
func BuildGadget(f Formula) (*Gadget, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	b := topology.NewBuilder()
	r := f.NumVars
	k := len(f.Clauses)

	// One spine switch and one aggregation switch per literal.
	aggOf := make(map[Literal]topology.SwitchID, 2*r)
	spineOf := make(map[Literal]topology.SwitchID, 2*r)
	for v := 1; v <= r; v++ {
		for _, lit := range []Literal{Literal(v), Literal(-v)} {
			aggOf[lit] = b.AddSwitch(fmt.Sprintf("agg-%s", litName(lit)), 1, 0)
			spineOf[lit] = b.AddSwitch(fmt.Sprintf("spine-%s", litName(lit)), 2, -1)
		}
	}
	// Clause ToRs: C_i links to the aggregation switches of its literals.
	for i, c := range f.Clauses {
		tor := b.AddSwitch(fmt.Sprintf("C%d", i+1), 0, 0)
		for _, lit := range c {
			b.AddLink(tor, aggOf[lit], -1)
		}
	}
	// Helper ToRs: H_j (j ≤ r) links to X_j and ¬X_j, forcing at least one
	// of each literal pair to stay connected. H_{r+1..k} link to X_1, ¬X_1
	// (they only pad the pod to the paper's 2k ToRs).
	helpers := k
	if helpers < r {
		helpers = r
	}
	for j := 1; j <= helpers; j++ {
		v := j
		if v > r {
			v = 1
		}
		tor := b.AddSwitch(fmt.Sprintf("H%d", j), 0, 0)
		b.AddLink(tor, aggOf[Literal(v)], -1)
		b.AddLink(tor, aggOf[Literal(-v)], -1)
	}
	// The faulty set L: one spine uplink per literal aggregation switch,
	// all with the same corruption properties.
	litLink := make(map[Literal]topology.LinkID, 2*r)
	var faulty []topology.LinkID
	for v := 1; v <= r; v++ {
		for _, lit := range []Literal{Literal(v), Literal(-v)} {
			l := b.AddLink(aggOf[lit], spineOf[lit], -1)
			litLink[lit] = l
			faulty = append(faulty, l)
		}
	}
	topo, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("core: gadget build: %w", err)
	}
	// Capacity constraint: every ToR must keep at least one valley-free
	// path to the spine. A tiny positive fraction encodes exactly that
	// since path counts are integers.
	net, err := NewNetwork(topo, 1e-6)
	if err != nil {
		return nil, err
	}
	for _, l := range faulty {
		net.SetCorruption(l, gadgetRate)
	}
	return &Gadget{Net: net, FaultyLinks: faulty, LitLink: litLink, formula: f}, nil
}

func litName(lit Literal) string {
	if lit < 0 {
		return fmt.Sprintf("not-x%d", -lit)
	}
	return fmt.Sprintf("x%d", lit)
}

// MaxDisabled runs the optimizer on the gadget and reports how many faulty
// links it disabled. By Lemma A.1 the answer is NumVars exactly when the
// formula is satisfiable, and strictly fewer otherwise.
func (g *Gadget) MaxDisabled() int {
	opt := NewOptimizer(g.Net, LinearPenalty)
	disabled, _ := opt.Run(gadgetRate / 2)
	return len(disabled)
}

// Assignment extracts the truth assignment encoded by the current disabled
// set: a literal is false when its spine link is disabled, and variables
// with neither or both links disabled default to true. Valid only after
// MaxDisabled on a satisfiable formula.
func (g *Gadget) Assignment() []bool {
	out := make([]bool, g.formula.NumVars)
	for v := 1; v <= g.formula.NumVars; v++ {
		posDown := g.Net.Disabled(g.LitLink[Literal(v)])
		out[v-1] = !posDown
	}
	return out
}

// AssignmentSatisfies reports whether the extracted assignment satisfies
// the formula.
func (g *Gadget) AssignmentSatisfies() bool {
	mask := 0
	for i, v := range g.Assignment() {
		if v {
			mask |= 1 << uint(i)
		}
	}
	return g.formula.satisfiedBy(mask)
}
