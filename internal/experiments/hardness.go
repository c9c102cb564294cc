package experiments

import (
	"fmt"

	"corropt/internal/core"
	"corropt/internal/rngutil"
)

func init() {
	register("thm51", "NP-hardness gadget: optimizer vs 3-SAT oracle (Appendix A)", analytic(thm51))
}

// thm51 exercises the Appendix A reduction behind Theorem 5.1: for random
// 3-SAT formulas near the satisfiability threshold, the optimizer applied
// to the gadget disables exactly NumVars faulty links iff the formula is
// satisfiable — i.e. the optimizer genuinely solves the NP-complete search
// problem exactly on these adversarial instances.
func thm51(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "thm51",
		Title:  "Appendix A reduction: optimizer answer vs brute-force SAT",
		Header: []string{"instance", "vars", "clauses", "satisfiable", "links_disabled", "agrees", "assignment_valid"},
	}
	rng := rngutil.New(cfg.Seed).Split("thm51")
	instances := 20
	if cfg.Scale != ScaleSmall {
		instances = 60
	}
	agree := 0
	for i := 0; i < instances; i++ {
		vars := 2 + rng.Intn(5)
		clauses := vars*4 + rng.Intn(4)
		f := core.Formula{NumVars: vars}
		for c := 0; c < clauses; c++ {
			var cl core.Clause
			for j := range cl {
				v := rng.Intn(vars) + 1
				if rng.Bool(0.5) {
					v = -v
				}
				cl[j] = core.Literal(v)
			}
			f.Clauses = append(f.Clauses, cl)
		}
		g, err := core.BuildGadget(f)
		if err != nil {
			return nil, err
		}
		n := g.MaxDisabled()
		sat := f.Satisfiable()
		ok := (n == vars) == sat
		if ok {
			agree++
		}
		valid := "n/a"
		if sat {
			valid = fmt.Sprintf("%v", g.AssignmentSatisfies())
		}
		r.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%d", vars), fmt.Sprintf("%d", clauses),
			fmt.Sprintf("%v", sat), fmt.Sprintf("%d", n), fmt.Sprintf("%v", ok), valid)
	}
	r.AddNote("agreement: %d/%d instances (must be all)", agree, instances)
	if agree != instances {
		return r, fmt.Errorf("experiments: optimizer disagreed with the SAT oracle on %d instances", instances-agree)
	}
	return r, nil
}
